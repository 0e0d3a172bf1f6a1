"""Seeded generators of pseudo-predictions with controlled error magnitude.

Every generator is a pure function of (input, parameters, seed): running it
twice with the same arguments yields bit-identical output, and no global RNG
state is touched.  With a fixed seed the random draws do not depend on the
magnitude, so growing the magnitude yields nested perturbations (useful for
monotone sensitivity curves).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .raster import GrayImage, dilate3x3, mask_to_gray, rasterize
from .traj_core import Trajectory, join_strokes, resample, stroke_bounds


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _stroke_xy(traj: Trajectory) -> list[np.ndarray]:
    return [traj.xy[a:b] for a, b in stroke_bounds(traj)]


# (test, demand) rules per kind, checked in order after finiteness.  Counts and
# dilations are cast to int only once they pass, so 1.5 is never truncated.
_COUNT_RULES = ((lambda v: v >= 1, "count must be finite and at least 1"),
                (lambda v: float(v).is_integer(), "count must be a whole number"))
_MAGNITUDE_RULES = {
    "point-drift": ((lambda v: v > 0, "distance must be positive"),),
    "stroke-drift": ((lambda v: v > 0, "distance must be positive"),),
    "stroke-insert": _COUNT_RULES,
    "stroke-delete": _COUNT_RULES,
    "stroke-width": ((lambda v: v >= 0, "dilation must be non-negative"),
                     (lambda v: float(v).is_integer(), "dilation must be a whole number")),
    "sample-rate": ((lambda v: v > 0, "factor must be positive"),),
}


def _is_finite(value) -> bool:
    """False for NaN, +-inf and an int beyond float range, where math.isfinite raises."""
    return abs(value) <= sys.float_info.max


def _check_magnitude(kind: str, value) -> None:
    """Raise ValueError unless `value` is a magnitude the named kind can take."""
    if not _is_finite(value):
        raise ValueError(f"{kind} magnitude must be finite, got {value}")
    for test, demand in _MAGNITUDE_RULES[kind]:
        if not test(value):
            raise ValueError(f"{kind} {demand}, got {value}")


def insert_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Insert k copies of randomly chosen strokes at random canvas positions."""
    _check_magnitude("stroke-insert", k)
    strokes = _stroke_xy(traj)
    if not strokes:
        raise ValueError("trajectory has no strokes to copy")
    side = traj.canvas_side
    rng = _rng(seed)
    out = list(strokes)
    for _ in range(int(k)):
        src = strokes[int(rng.integers(len(strokes)))]
        (min_x, min_y), (max_x, max_y) = src.min(axis=0).tolist(), src.max(axis=0).tolist()
        new_min_x = rng.uniform(0.0, max(side - 1 - (max_x - min_x), 0.0))
        new_min_y = rng.uniform(0.0, max(side - 1 - (max_y - min_y), 0.0))
        moved = src + (new_min_x - min_x, new_min_y - min_y)
        pos = int(rng.integers(len(out) + 1))
        out.insert(pos, moved)
    return join_strokes(out, traj)


def delete_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Remove k uniformly chosen distinct strokes, keeping survivor order."""
    _check_magnitude("stroke-delete", k)
    k = int(k)
    strokes = _stroke_xy(traj)
    if k >= len(strokes):
        raise ValueError(
            f"cannot delete {k} of {len(strokes)} strokes: at least one must remain")
    order = _rng(seed).permutation(len(strokes))
    doomed = set(int(i) for i in order[:k])
    survivors = [st for i, st in enumerate(strokes) if i not in doomed]
    return join_strokes(survivors, traj)


def drift_points(traj: Trajectory, d: float, seed: int,
                 fraction: float = 1.0) -> Trajectory:
    """Displace a random subset of drawn points by exactly d at random angles.

    Displaced coordinates are clamped to the canvas; pen states are unchanged.
    """
    _check_magnitude("point-drift", d)
    if not (0 < fraction <= 1):
        raise ValueError("fraction must lie in (0, 1]")
    rng = _rng(seed)
    n_drawn = len(traj.drawn_xy())
    m = math.ceil(fraction * n_drawn)
    chosen = rng.permutation(n_drawn)[:m]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=m).tolist()
    step = d * np.array([(math.cos(t), math.sin(t)) for t in angles]).reshape(-1, 2)
    xy = traj.xy.copy()
    xy[chosen] = np.minimum(np.maximum(xy[chosen] + step, 0.0), traj.canvas_side - 1)
    return Trajectory.from_arrays(xy, traj.state, traj.canvas_side)


def drift_strokes(traj: Trajectory, d: float, seed: int) -> Trajectory:
    """Rigidly translate each stroke by d at an independent random angle.

    The translation is shortened per axis so the stroke's bounding box stays
    in canvas; within-stroke geometry is otherwise preserved exactly.
    """
    _check_magnitude("stroke-drift", d)
    rng = _rng(seed)
    hi = traj.canvas_side - 1
    out = []
    for st in _stroke_xy(traj):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ox, oy = d * math.cos(theta), d * math.sin(theta)
        (min_x, min_y), (max_x, max_y) = st.min(axis=0).tolist(), st.max(axis=0).tolist()
        ox = min(max(ox, -min_x), hi - max_x)
        oy = min(max(oy, -min_y), hi - max_y)
        out.append(st + (ox, oy))
    return join_strokes(out, traj)


def widen_strokes(traj: Trajectory, k: int, side: int | None = None) -> GrayImage:
    """Render the trajectory k-times dilated as an ink-is-dark grayscale image."""
    _check_magnitude("stroke-width", k)
    mask = dilate3x3(rasterize(traj, side), int(k))
    return mask_to_gray(mask, foreground=0, background=255)


def change_sample_rate(traj: Trajectory, factor: float) -> Trajectory:
    """Vary the trajectory's point density; delegates to resample."""
    _check_magnitude("sample-rate", factor)
    return resample(traj, factor)


# kind name -> generator(traj, magnitude, seed); the generators validate the
# magnitude.  The lambdas look each generator up by name when called, so a
# rebound module attribute is honoured.
ERROR_KINDS = {
    "stroke-insert": lambda traj, m, seed: insert_strokes(traj, m, seed),
    "stroke-delete": lambda traj, m, seed: delete_strokes(traj, m, seed),
    "point-drift": lambda traj, m, seed: drift_points(traj, m, seed),
    "stroke-drift": lambda traj, m, seed: drift_strokes(traj, m, seed),
}


def perturb(traj: Trajectory, kind: str, magnitude, seed: int) -> Trajectory:
    """Apply the named error kind at `magnitude` under a fixed seed."""
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {tuple(ERROR_KINDS)}")
    return ERROR_KINDS[kind](traj, magnitude, seed)

"""Seeded generators of pseudo-predictions with controlled error magnitude.

Every generator is a pure function of (input, parameters, seed): running it
twice with the same arguments yields bit-identical output, and no global RNG
state is touched.  With a fixed seed the random draws do not depend on the
magnitude, so growing the magnitude yields nested perturbations (useful for
monotone sensitivity curves).  `perturb_row` therefore makes a glyph's draws
once for a whole grid of magnitudes and builds each prediction from them; the
four single-magnitude generators are `perturb`, a row of one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .raster import GrayImage, dilate3x3, mask_to_gray, rasterize
from .traj_core import Trajectory, _ok, _whole, join_strokes, resample, stroke_bounds


def _stroke_xy(traj: Trajectory) -> list[np.ndarray]:
    return [traj.xy[a:b] for a, b in stroke_bounds(traj)]


# kind -> (noun, least whole value), or (noun, None) for a positive magnitude; checked
# after finiteness.  A count or dilation becomes an int only once `_whole` passes it.
_MAGNITUDE_RULES = {
    "point-drift": ("distance", None), "stroke-drift": ("distance", None),
    "stroke-insert": ("count", 1), "stroke-delete": ("count", 1),
    "stroke-width": ("dilation", 0), "sample-rate": ("factor", None),
}


def _is_finite(value) -> bool:
    """False for NaN, +-inf and an int beyond float range, where math.isfinite raises."""
    return abs(value) <= sys.float_info.max


def _check_magnitude(kind: str, value):
    """`value`, as an int for a whole kind; ValueError unless the named kind can take it."""
    if not _is_finite(value):
        raise ValueError(f"{kind} magnitude must be finite, got {value}")
    noun, low = _MAGNITUDE_RULES[kind]
    if low is None and not value > 0:
        raise ValueError(f"{kind} {noun} must be positive, got {value}")
    return value if low is None else _whole(value, f"{kind} {noun}", low)


def _insert_row(traj: Trajectory, ks, seed: int) -> list:
    strokes = _stroke_xy(traj)
    if not strokes:
        return [ValueError("trajectory has no strokes to copy") for _ in ks]
    side, rng, out, joined = traj.canvas_side, np.random.default_rng(seed), list(strokes), {}
    for count in range(1, max(ks, default=0) + 1):
        src = strokes[int(rng.integers(len(strokes)))]
        (min_x, min_y), (max_x, max_y) = src.min(axis=0).tolist(), src.max(axis=0).tolist()
        new_min_x = rng.uniform(0.0, max(side - 1 - (max_x - min_x), 0.0))
        new_min_y = rng.uniform(0.0, max(side - 1 - (max_y - min_y), 0.0))
        out.insert(int(rng.integers(len(out) + 1)), src + (new_min_x - min_x, new_min_y - min_y))
        if count in ks:
            joined[count] = join_strokes(out, traj)
    return [joined[k] for k in ks]


def _delete_row(traj: Trajectory, ks, seed: int) -> list:
    strokes = _stroke_xy(traj)
    n = len(strokes)
    order = np.random.default_rng(seed).permutation(n).tolist()  # the first k are deleted
    return [join_strokes([strokes[i] for i in sorted(order[k:])], traj) if k < n
            else ValueError(f"cannot delete {k} of {n} strokes: at least one must remain")
            for k in ks]


def _point_drift_row(traj: Trajectory, ds, seed: int) -> list:
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(len(traj.drawn_xy()))  # every drawn point; the order deals the angles
    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(chosen)).tolist()
    unit = np.array([(math.cos(t), math.sin(t)) for t in angles]).reshape(-1, 2)
    base, row = traj.xy[chosen], []
    for d in ds:
        xy = traj.xy.copy()
        xy[chosen] = np.minimum(np.maximum(base + d * unit, 0.0), traj.canvas_side - 1)
        row.append(Trajectory._trusted(xy, traj.state, traj.canvas_side))
    return row


def _stroke_drift_row(traj: Trajectory, ds, seed: int) -> list:
    strokes = _stroke_xy(traj)
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, len(strokes)).tolist()
    units = [(math.cos(t), math.sin(t)) for t in angles]
    boxes = [(st.min(axis=0).tolist(), st.max(axis=0).tolist()) for st in strokes]
    # every magnitude moves the same rows: add its per-stroke offsets to them
    joined, lens = join_strokes(strokes, traj), [len(st) for st in strokes]
    hi, row = traj.canvas_side - 1, []
    for d in ds:
        offsets = [(min(max(d * cos, -min_x), hi - max_x), min(max(d * sin, -min_y), hi - max_y))
                   for (cos, sin), ((min_x, min_y), (max_x, max_y)) in zip(units, boxes)]
        xy = joined.xy.copy()
        xy[:sum(lens)] += np.repeat(np.array(offsets).reshape(-1, 2), lens, axis=0)
        row.append(Trajectory._trusted(xy, joined.state, traj.canvas_side))
    return row


# kind name -> row body(traj, magnitudes, seed), called by `perturb_row` once
# the magnitudes pass `_check_magnitude`
ERROR_KINDS = {"stroke-insert": _insert_row, "stroke-delete": _delete_row,
               "point-drift": _point_drift_row, "stroke-drift": _stroke_drift_row}


def perturb_row(traj: Trajectory, kind: str, grid, seed: int) -> list:
    """`perturb` at each magnitude of `grid`, in grid order, from one seeded set
    of draws.  The magnitudes and the seed are checked before any draw; a
    magnitude this glyph cannot take gets `perturb`'s ValueError in its place."""
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {tuple(ERROR_KINDS)}")
    grid = [_check_magnitude(kind, magnitude) for magnitude in grid]
    seed = _whole(seed, "seed")
    with np.errstate(over="ignore"):  # a coordinate past the float range: inf, refused or clamped
        return ERROR_KINDS[kind](traj, grid, seed)


def perturb(traj: Trajectory, kind: str, magnitude, seed: int) -> Trajectory:
    """Apply the named error kind at `magnitude` under a fixed seed: a row of one."""
    return _ok(perturb_row(traj, kind, (magnitude,), seed)[0])


def insert_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Insert k copies of randomly chosen strokes at random canvas positions."""
    return perturb(traj, "stroke-insert", k, seed)


def delete_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Remove k uniformly chosen distinct strokes, keeping survivor order."""
    return perturb(traj, "stroke-delete", k, seed)


def drift_points(traj: Trajectory, d: float, seed: int) -> Trajectory:
    """Displace every drawn point by exactly d at an independent random angle.

    Displaced coordinates are clamped to the canvas; pen states are unchanged.
    """
    return perturb(traj, "point-drift", d, seed)


def drift_strokes(traj: Trajectory, d: float, seed: int) -> Trajectory:
    """Rigidly translate each stroke by d at an independent random angle.

    The translation is shortened per axis so the stroke's bounding box stays
    in canvas; within-stroke geometry is otherwise preserved exactly.
    """
    return perturb(traj, "stroke-drift", d, seed)


def widen_strokes(traj: Trajectory, k: int, side: int | None = None) -> GrayImage:
    """Render the trajectory k-times dilated as a dark-ink-on-white image."""
    k = _check_magnitude("stroke-width", k)  # before the render: its error comes first
    return mask_to_gray(dilate3x3(rasterize(traj, side), k))


def change_sample_rate(traj: Trajectory, factor: float) -> Trajectory:
    """Vary the trajectory's point density; delegates to resample."""
    _check_magnitude("sample-rate", factor)
    return resample(traj, factor)

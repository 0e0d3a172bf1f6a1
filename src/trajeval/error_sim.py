"""Seeded generators of pseudo-predictions with controlled error magnitude.

Every generator is a pure function of (input, parameters, seed): running it
twice with the same arguments yields bit-identical output, and no global RNG
state is touched.  With a fixed seed the random draws do not depend on the
magnitude, so growing the magnitude yields nested perturbations (useful for
monotone sensitivity curves).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .raster import GrayImage, dilate3x3, mask_to_gray, rasterize
from .traj_core import (PenState, Stroke, TrajPoint, Trajectory, concat_strokes,
                        resample, strokes_of)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _assemble(strokes, like: Trajectory) -> Trajectory:
    """Rebuild a trajectory from strokes; every stroke is closed with pen-up."""
    fixed = []
    for st in strokes:
        pts = [replace(p, state=PenState.DOWN) for p in st.points[:-1]]
        pts.append(replace(st.points[-1], state=PenState.UP))
        fixed.append(Stroke(tuple(pts)))
    return concat_strokes(fixed, like.canvas_side, like.eos_point())


def insert_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Insert k copies of randomly chosen strokes at random canvas positions."""
    if k < 1:
        raise ValueError("insertion count must be at least 1")
    strokes = strokes_of(traj)
    if not strokes:
        raise ValueError("trajectory has no strokes to copy")
    side = traj.canvas_side
    rng = _rng(seed)
    out = list(strokes)
    for _ in range(k):
        src = strokes[int(rng.integers(len(strokes)))]
        min_x = min(p.x for p in src.points)
        max_x = max(p.x for p in src.points)
        min_y = min(p.y for p in src.points)
        max_y = max(p.y for p in src.points)
        new_min_x = rng.uniform(0.0, max(side - 1 - (max_x - min_x), 0.0))
        new_min_y = rng.uniform(0.0, max(side - 1 - (max_y - min_y), 0.0))
        ox, oy = new_min_x - min_x, new_min_y - min_y
        moved = Stroke(tuple(replace(p, x=p.x + ox, y=p.y + oy) for p in src.points))
        pos = int(rng.integers(len(out) + 1))
        out.insert(pos, moved)
    return _assemble(out, traj)


def delete_strokes(traj: Trajectory, k: int, seed: int) -> Trajectory:
    """Remove k uniformly chosen distinct strokes, keeping survivor order."""
    if k < 1:
        raise ValueError("deletion count must be at least 1")
    strokes = strokes_of(traj)
    if k >= len(strokes):
        raise ValueError(
            f"cannot delete {k} of {len(strokes)} strokes: at least one must remain")
    order = _rng(seed).permutation(len(strokes))
    doomed = set(int(i) for i in order[:k])
    survivors = [st for i, st in enumerate(strokes) if i not in doomed]
    return _assemble(survivors, traj)


def drift_points(traj: Trajectory, d: float, seed: int,
                 fraction: float = 1.0) -> Trajectory:
    """Displace a random subset of drawn points by exactly d at random angles.

    Displaced coordinates are clamped to the canvas; pen states are unchanged.
    """
    if not (d > 0):
        raise ValueError("drift distance must be positive")
    if not (0 < fraction <= 1):
        raise ValueError("fraction must lie in (0, 1]")
    rng = _rng(seed)
    points = list(traj.points)
    drawn_idx = [i for i, p in enumerate(points) if p.state is not PenState.EOS]
    m = math.ceil(fraction * len(drawn_idx))
    chosen = rng.permutation(len(drawn_idx))[:m]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=m)
    hi = traj.canvas_side - 1
    for sel, theta in zip(chosen, angles):
        gi = drawn_idx[int(sel)]
        pt = points[gi]
        nx = min(max(pt.x + d * math.cos(theta), 0.0), hi)
        ny = min(max(pt.y + d * math.sin(theta), 0.0), hi)
        points[gi] = replace(pt, x=nx, y=ny)
    return Trajectory(tuple(points), canvas_side=traj.canvas_side)


def drift_strokes(traj: Trajectory, d: float, seed: int) -> Trajectory:
    """Rigidly translate each stroke by d at an independent random angle.

    The translation is shortened per axis so the stroke's bounding box stays
    in canvas; within-stroke geometry is otherwise preserved exactly.
    """
    if not (d > 0):
        raise ValueError("drift distance must be positive")
    rng = _rng(seed)
    hi = traj.canvas_side - 1
    out = []
    for st in strokes_of(traj):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ox, oy = d * math.cos(theta), d * math.sin(theta)
        min_x = min(p.x for p in st.points)
        max_x = max(p.x for p in st.points)
        min_y = min(p.y for p in st.points)
        max_y = max(p.y for p in st.points)
        ox = min(max(ox, -min_x), hi - max_x)
        oy = min(max(oy, -min_y), hi - max_y)
        out.append(Stroke(tuple(replace(p, x=p.x + ox, y=p.y + oy)
                                for p in st.points)))
    return _assemble(out, traj)


def widen_strokes(traj: Trajectory, k: int, side: int | None = None) -> GrayImage:
    """Render the trajectory k-times dilated as an ink-is-dark grayscale image."""
    if k < 0:
        raise ValueError("dilation count must be non-negative")
    mask = dilate3x3(rasterize(traj, side), k)
    return mask_to_gray(mask, foreground=0, background=255)


def change_sample_rate(traj: Trajectory, factor: float) -> Trajectory:
    """Vary the trajectory's point density; delegates to resample."""
    return resample(traj, factor)


# kind name -> generator(traj, magnitude, seed), with the magnitude cast to
# the generator's parameter type; the generators validate it.  The lambdas
# look each generator up by name when called, so a rebound module attribute
# is honoured.
ERROR_KINDS = {
    "stroke-insert": lambda traj, m, seed: insert_strokes(traj, int(m), seed),
    "stroke-delete": lambda traj, m, seed: delete_strokes(traj, int(m), seed),
    "point-drift": lambda traj, m, seed: drift_points(traj, float(m), seed),
    "stroke-drift": lambda traj, m, seed: drift_strokes(traj, float(m), seed),
}


def perturb(traj: Trajectory, kind: str, magnitude, seed: int) -> Trajectory:
    """Apply the named error kind at `magnitude` under a fixed seed."""
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {tuple(ERROR_KINDS)}")
    return ERROR_KINDS[kind](traj, magnitude, seed)

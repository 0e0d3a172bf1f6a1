"""Trajectory data model, stroke segmentation, and preprocessing.

A trajectory is an ordered sequence of pen-tip points on a square canvas,
stored as two read-only columns: `xy` (float64, shape (n, 2)) and `state`
(int8, shape (n,), holding `PenState` values).  A pen-down point draws a
segment to its successor, a pen-up point closes its stroke, and an optional
final end-of-sequence marker carries no ink.  Stroke boundaries are derived
from `state` (`stroke_bounds`), never stored.  The file reader and writer
go straight between JSON and the columns.  `TrajPoint` is a per-point view,
built on each use of `.points`, for tests and benchmarks.  All types are
immutable values and all operations are pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class PenState(Enum):
    """Per-point pen state; exactly one holds (one-hot on the wire)."""

    DOWN = 0  # draws a segment to the next point
    UP = 1    # last point of its stroke, no segment to the next point
    EOS = 2   # end of sequence; at most one, always last

    def one_hot(self) -> tuple[int, int, int]:
        return _ONE_HOT[self.value]

    @classmethod
    def from_one_hot(cls, s) -> "PenState":
        vec = list(s)
        if len(vec) != 3 or sorted(vec) != [0, 0, 1]:
            raise ValueError(f"state vector must be one-hot over 3 classes, got {s!r}")
        return _STATES[vec.index(1)]


_STATES = tuple(PenState)  # indexed by value
_ONE_HOT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # indexed by value
DOWN, UP, EOS = (s.value for s in _STATES)


def pixel_of(x: float, y: float) -> tuple[int, int]:
    """Round half-up to the containing pixel."""
    return (math.floor(x + 0.5), math.floor(y + 0.5))


def _check_finite(x, y) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite coordinates ({x}, {y})")


@dataclass(frozen=True)
class TrajPoint:
    x: float
    y: float
    state: PenState

    def __post_init__(self):
        _check_finite(self.x, self.y)


class Trajectory:
    """Columns `xy` and `state` plus `canvas_side`; see the module docstring.

    `Trajectory.from_arrays(xy, state, canvas_side)` copies two columns;
    `Trajectory(points, canvas_side)` builds from `TrajPoint`s and, like the
    `.points`/`.drawn_points()` view, is kept for tests and benchmarks.
    """

    __slots__ = ("xy", "state", "canvas_side")

    def __init__(self, points, canvas_side: int = 64):
        points = tuple(points)
        xy = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)
        self._set(xy, [p.state.value for p in points], canvas_side)

    @classmethod
    def from_arrays(cls, xy, state, canvas_side: int = 64) -> "Trajectory":
        traj = cls.__new__(cls)
        traj._set(np.array(xy, dtype=np.float64), state, canvas_side)
        return traj

    def _set(self, xy: np.ndarray, state, canvas_side: int) -> None:
        state = np.array(state)
        if len(state) == 0:
            raise ValueError("trajectory must contain at least one point")
        if canvas_side <= 0:
            raise ValueError("canvas_side must be positive")
        if xy.shape != (len(state), 2) or state.ndim != 1:
            raise ValueError(f"xy of shape {xy.shape} does not match "
                             f"{len(state)} pen states")
        if not ((state == DOWN) | (state == UP) | (state == EOS)).all():
            raise ValueError("pen states must be 0 (down), 1 (up) or 2 (end of sequence)")
        if not np.isfinite(xy).all():
            _check_finite(*xy[~np.isfinite(xy).all(axis=1)][0].tolist())
        eos = np.flatnonzero(state == EOS)
        if len(eos) > 1:
            raise ValueError("at most one end-of-sequence point is allowed")
        if len(eos) and eos[0] != len(state) - 1:
            raise ValueError("the end-of-sequence point must be last")
        xy.flags.writeable = False
        state = state.astype(np.int8)
        state.flags.writeable = False
        for name, value in (("xy", xy), ("state", state), ("canvas_side", canvas_side)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.state)

    @property
    def has_eos(self) -> bool:
        return bool(self.state[-1] == EOS)

    def drawn_xy(self) -> np.ndarray:
        """Coordinates that carry ink (every row but the EOS marker)."""
        return self.xy[:-1] if self.has_eos else self.xy

    @property
    def points(self) -> tuple[TrajPoint, ...]:
        """The rows as `TrajPoint`s, built on each use."""
        return tuple(TrajPoint(x, y, _STATES[s])
                     for (x, y), s in zip(self.xy.tolist(), self.state.tolist()))

    def drawn_points(self) -> tuple[TrajPoint, ...]:
        """Points that carry ink (everything but the EOS marker)."""
        return self.points[:-1] if self.has_eos else self.points


def stroke_bounds(traj: Trajectory) -> list[tuple[int, int]]:
    """Row ranges [start, stop) of the strokes: maximal pen-down runs of the
    drawn rows, each closed by a pen-up point or by the last drawn row."""
    n = len(traj.drawn_xy())
    stops = (np.flatnonzero(traj.state[:n] == UP) + 1).tolist()
    if n and (not stops or stops[-1] != n):
        stops.append(n)  # trailing stroke without pen-up
    return list(zip([0] + stops[:-1], stops))


def strokes_of(traj: Trajectory) -> list[Trajectory]:
    """Split a trajectory into strokes, each a trajectory over its rows."""
    return [Trajectory.from_arrays(traj.xy[a:b], traj.state[a:b], traj.canvas_side)
            for a, b in stroke_bounds(traj)]


def join_strokes(parts, like: Trajectory, closing=UP) -> Trajectory:
    """Concatenate stroke coordinate arrays on `like`'s canvas.

    Every point of a stroke is pen-down except its last, which takes the
    stroke's closing state (a scalar, or one per stroke); `like`'s EOS
    marker, if any, is appended.
    """
    eos = like.xy[-1:] if like.has_eos else like.xy[:0]
    xy = np.concatenate([*parts, eos])
    state = np.full(len(xy), DOWN, dtype=np.int8)
    state[np.cumsum([len(p) for p in parts], dtype=np.intp) - 1] = closing
    state[len(xy) - len(eos):] = EOS
    return Trajectory.from_arrays(xy, state, like.canvas_side)


def _per_stroke(traj: Trajectory, fn) -> Trajectory:
    """Map each stroke's coordinates through fn; strokes keep their closing states."""
    bounds = stroke_bounds(traj)
    return join_strokes([fn(traj.xy[a:b]) for a, b in bounds], traj,
                        traj.state[[b - 1 for _, b in bounds]])


def normalize_to_canvas(traj: Trajectory, side: int | None = None) -> Trajectory:
    """Uniformly scale and translate so the bbox fits [0, side) with the min
    corner at the origin and the longest side mapped to side-1.

    A degenerate bounding box (single distinct position) is placed at the
    canvas center with scale 1.
    """
    side = side if side is not None else traj.canvas_side
    if side <= 1:
        raise ValueError("side must be at least 2")
    drawn = traj.drawn_xy()
    lo, hi = drawn.min(axis=0), drawn.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    if span == 0.0:
        mapped = traj.xy - lo + (side - 1) / 2.0
    else:
        mapped = (traj.xy - lo) * ((side - 1) / span)
    return Trajectory.from_arrays(mapped, traj.state, side)


def dedupe_points(traj: Trajectory) -> Trajectory:
    """Collapse consecutive points within a stroke that round to the same pixel."""
    def kept(pts):
        pix = np.floor(pts + 0.5)
        return pts[np.r_[True, (pix[1:] != pix[:-1]).any(axis=1)]]
    return _per_stroke(traj, kept)


def downsample_half(traj: Trajectory) -> Trajectory:
    """Keep every 2nd point of each stroke, always retaining both endpoints."""
    return _per_stroke(traj, lambda pts: pts[np.unique(np.r_[0:len(pts):2, len(pts) - 1])])


def _rhu(v):
    return np.floor(v + 0.5).astype(np.int64)


def _resample_stroke(pts: np.ndarray, factor: float) -> np.ndarray:
    n = len(pts)
    if n == 1:
        return pts
    if factor < 1:
        target = max(int(_rhu(factor * (n - 1))) + 1, 2)
        return pts[np.unique(_rhu(np.arange(target) * (n - 1) / (target - 1)))]
    # segment i splits into max(rhu(factor*i) - rhu(factor*(i-1)), 1) pieces;
    # interpolated points are inserted, the original points kept exactly
    pieces = np.maximum(np.diff(_rhu(factor * np.arange(n))), 1)
    seg = np.repeat(np.arange(n - 1), pieces)
    j = np.arange(len(seg)) + 1 - np.repeat(np.cumsum(pieces) - pieces, pieces)
    a, b = pts[seg], pts[seg + 1]
    out = a + (b - a) * (j / pieces[seg])[:, None]
    ends = j == pieces[seg]
    out[ends] = b[ends]
    return np.concatenate([pts[:1], out])


def resample(traj: Trajectory, factor: float) -> Trajectory:
    """Change the sampling density of every stroke by `factor`.

    factor >= 1 subdivides each within-stroke segment by linear interpolation
    so a stroke of n points ends up with round(factor*(n-1))+1 points; factor
    < 1 decimates uniformly, always keeping stroke endpoints.
    """
    if factor <= 0:
        raise ValueError("resample factor must be positive")
    return _per_stroke(traj, lambda pts: _resample_stroke(pts, factor))


# --- canonical file formats -------------------------------------------------

def trajectory_to_points_obj(traj: Trajectory) -> dict:
    return {
        "canvas": [traj.canvas_side, traj.canvas_side],
        "points": [{"x": x, "y": y, "s": list(_ONE_HOT[s])}
                   for (x, y), s in zip(traj.xy.tolist(), traj.state.tolist())],
    }


def trajectory_to_strokes_obj(traj: Trajectory) -> dict:
    return {
        "canvas": [traj.canvas_side, traj.canvas_side],
        "strokes": [traj.xy[a:b].tolist() for a, b in stroke_bounds(traj)],
    }


def _canvas_side_of(obj) -> int:
    canvas = obj.get("canvas", [64, 64])
    if not isinstance(canvas, (list, tuple)) or len(canvas) != 2:
        raise ValueError(f"canvas must be a [width, height] pair, got {canvas!r}")
    try:
        return int(max(canvas))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"canvas must hold two finite numbers, got {canvas!r}") from exc


def trajectory_from_obj(obj) -> Trajectory:
    """Parse either canonical form (points or strokes) from a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("trajectory file must contain a JSON object")
    side = _canvas_side_of(obj)
    xy, state = [], []
    if "points" in obj:
        if not isinstance(obj["points"], list):
            raise ValueError("'points' must be a list of point records")
        for i, rec in enumerate(obj["points"]):
            try:
                s = PenState.from_one_hot(rec["s"]).value
                x, y = float(rec["x"]), float(rec["y"])
                _check_finite(x, y)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid point at index {i}: {exc}") from exc
            xy.append((x, y))
            state.append(s)
    elif "strokes" in obj:
        strokes = obj["strokes"]
        if not isinstance(strokes, list) or not strokes:
            raise ValueError("strokes form must contain a list of at least one stroke")
        for si, stroke in enumerate(strokes):
            if not isinstance(stroke, list) or not stroke:
                raise ValueError(f"stroke {si} must be a non-empty list of points")
            for j, p in enumerate(stroke):
                if not isinstance(p, (list, tuple)) or len(p) != 2:
                    raise ValueError(f"stroke {si} point {j} must be an [x, y] pair")
                try:
                    x, y = float(p[0]), float(p[1])
                    _check_finite(x, y)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"invalid stroke {si} point {j}: {exc}") from exc
                xy.append((x, y))
            state += [DOWN] * (len(stroke) - 1) + [UP]
        xy.append(xy[-1])
        state.append(EOS)
    else:
        raise ValueError("trajectory object needs a 'points' or 'strokes' key")
    return Trajectory.from_arrays(xy, state, side)


def load_trajectory(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("trajectory JSON is nested too deeply") from None
    return trajectory_from_obj(obj)


def save_trajectory(traj: Trajectory, path, form: str = "points") -> None:
    if form == "points":
        obj = trajectory_to_points_obj(traj)
    elif form == "strokes":
        obj = trajectory_to_strokes_obj(traj)
    else:
        raise ValueError(f"unknown trajectory form {form!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")

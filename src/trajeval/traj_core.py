"""Trajectory data model, stroke segmentation, and preprocessing.

A trajectory is an ordered sequence of pen-tip points on a square canvas.
Each point carries a 3-way pen state: pen-down points draw a segment to
their successor, a pen-up point closes its stroke, and an optional final
end-of-sequence marker carries no ink.  All types are immutable values and
all operations are pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum


class PenState(Enum):
    """Per-point pen state; exactly one holds (one-hot on the wire)."""

    DOWN = 0  # draws a segment to the next point
    UP = 1    # last point of its stroke, no segment to the next point
    EOS = 2   # end of sequence; at most one, always last

    def one_hot(self) -> tuple[int, int, int]:
        return tuple(1 if i == self.value else 0 for i in range(3))

    @classmethod
    def from_one_hot(cls, s) -> "PenState":
        vec = list(s)
        if len(vec) != 3 or sorted(vec) != [0, 0, 1]:
            raise ValueError(f"state vector must be one-hot over 3 classes, got {s!r}")
        return cls(vec.index(1))


def pixel_of(x: float, y: float) -> tuple[int, int]:
    """Round half-up to the containing pixel."""
    return (math.floor(x + 0.5), math.floor(y + 0.5))


@dataclass(frozen=True)
class TrajPoint:
    x: float
    y: float
    state: PenState

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def pixel(self) -> tuple[int, int]:
        return pixel_of(self.x, self.y)


@dataclass(frozen=True)
class Trajectory:
    points: tuple[TrajPoint, ...]
    canvas_side: int = 64

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("trajectory must contain at least one point")
        if self.canvas_side <= 0:
            raise ValueError("canvas_side must be positive")
        eos = [i for i, p in enumerate(self.points) if p.state is PenState.EOS]
        if len(eos) > 1:
            raise ValueError("at most one end-of-sequence point is allowed")
        if eos and eos[0] != len(self.points) - 1:
            raise ValueError("the end-of-sequence point must be last")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def has_eos(self) -> bool:
        return self.points[-1].state is PenState.EOS

    def drawn_points(self) -> tuple[TrajPoint, ...]:
        """Points that carry ink (everything but the EOS marker)."""
        return self.points[:-1] if self.has_eos else self.points

    def eos_point(self) -> TrajPoint | None:
        return self.points[-1] if self.has_eos else None


@dataclass(frozen=True)
class Stroke:
    """Maximal pen-down run; contiguous slice of a trajectory."""

    points: tuple[TrajPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("stroke must contain at least one point")
        for p in self.points[:-1]:
            if p.state is not PenState.DOWN:
                raise ValueError("all stroke points except the last must be pen-down")
        if self.points[-1].state is PenState.EOS:
            raise ValueError("a stroke cannot contain the end-of-sequence point")

    def __len__(self) -> int:
        return len(self.points)


def strokes_of(traj: Trajectory) -> list[Stroke]:
    """Split a trajectory into strokes; a boundary follows every pen-up point."""
    strokes: list[Stroke] = []
    current: list[TrajPoint] = []
    for pt in traj.drawn_points():
        current.append(pt)
        if pt.state is PenState.UP:
            strokes.append(Stroke(tuple(current)))
            current = []
    if current:
        strokes.append(Stroke(tuple(current)))  # trailing stroke without pen-up
    return strokes


def concat_strokes(strokes, canvas_side: int, eos: TrajPoint | None = None) -> Trajectory:
    """Reassemble strokes (states taken as-is) into a trajectory."""
    points: list[TrajPoint] = []
    for st in strokes:
        points.extend(st.points)
    if eos is not None:
        points.append(replace(eos, state=PenState.EOS))
    return Trajectory(tuple(points), canvas_side=canvas_side)


def _rebuild(strokes, like: Trajectory) -> Trajectory:
    return concat_strokes(strokes, like.canvas_side, like.eos_point())


def _with_stroke_states(points: list[TrajPoint], closing: PenState) -> tuple[TrajPoint, ...]:
    """Interior points become pen-down; the last point takes the closing state."""
    fixed = [replace(p, state=PenState.DOWN) for p in points[:-1]]
    fixed.append(replace(points[-1], state=closing))
    return tuple(fixed)


def normalize_to_canvas(traj: Trajectory, side: int | None = None) -> Trajectory:
    """Uniformly scale and translate so the bbox fits [0, side) with the min
    corner at the origin and the longest side mapped to side-1.

    A degenerate bounding box (single distinct position) is placed at the
    canvas center with scale 1.
    """
    side = side if side is not None else traj.canvas_side
    if side <= 1:
        raise ValueError("side must be at least 2")
    drawn = traj.drawn_points()
    min_x = min(p.x for p in drawn)
    max_x = max(p.x for p in drawn)
    min_y = min(p.y for p in drawn)
    max_y = max(p.y for p in drawn)
    span = max(max_x - min_x, max_y - min_y)
    if span == 0.0:
        center = (side - 1) / 2.0
        mapped = [replace(p, x=p.x - min_x + center, y=p.y - min_y + center)
                  for p in traj.points]
    else:
        scale = (side - 1) / span
        mapped = [replace(p, x=(p.x - min_x) * scale, y=(p.y - min_y) * scale)
                  for p in traj.points]
    return Trajectory(tuple(mapped), canvas_side=side)


def dedupe_points(traj: Trajectory) -> Trajectory:
    """Collapse consecutive points within a stroke that round to the same pixel."""
    out: list[Stroke] = []
    for st in strokes_of(traj):
        kept = [st.points[0]]
        for pt in st.points[1:]:
            if pt.pixel() != kept[-1].pixel():
                kept.append(pt)
        out.append(Stroke(_with_stroke_states(kept, st.points[-1].state)))
    return _rebuild(out, traj)


def downsample_half(traj: Trajectory) -> Trajectory:
    """Keep every 2nd point of each stroke, always retaining both endpoints."""
    out: list[Stroke] = []
    for st in strokes_of(traj):
        n = len(st.points)
        idx = list(range(0, n, 2))
        if idx[-1] != n - 1:
            idx.append(n - 1)
        kept = [st.points[i] for i in idx]
        out.append(Stroke(_with_stroke_states(kept, st.points[-1].state)))
    return _rebuild(out, traj)


def _rhu(v: float) -> int:
    return math.floor(v + 0.5)


def resample(traj: Trajectory, factor: float) -> Trajectory:
    """Change the sampling density of every stroke by `factor`.

    factor >= 1 subdivides each within-stroke segment by linear interpolation
    so a stroke of n points ends up with round(factor*(n-1))+1 points; factor
    < 1 decimates uniformly, always keeping stroke endpoints.
    """
    if factor <= 0:
        raise ValueError("resample factor must be positive")
    out: list[Stroke] = []
    for st in strokes_of(traj):
        pts = st.points
        n = len(pts)
        if n == 1:
            out.append(st)
            continue
        if factor >= 1:
            new_pts: list[TrajPoint] = [pts[0]]
            prev_r = 0
            for i in range(1, n):
                r = _rhu(factor * i)
                pieces = max(r - prev_r, 1)
                prev_r = r
                a, b = pts[i - 1], pts[i]
                for j in range(1, pieces):
                    t = j / pieces
                    new_pts.append(TrajPoint(a.x + (b.x - a.x) * t,
                                             a.y + (b.y - a.y) * t,
                                             PenState.DOWN))
                new_pts.append(replace(b, state=PenState.DOWN))
        else:
            target = max(_rhu(factor * (n - 1)) + 1, 2)
            idx = sorted({_rhu(k * (n - 1) / (target - 1)) for k in range(target)})
            new_pts = [pts[i] for i in idx]
        out.append(Stroke(_with_stroke_states(new_pts, pts[-1].state)))
    return _rebuild(out, traj)


# --- canonical file formats -------------------------------------------------

def trajectory_to_points_obj(traj: Trajectory) -> dict:
    return {
        "canvas": [traj.canvas_side, traj.canvas_side],
        "points": [{"x": p.x, "y": p.y, "s": list(p.state.one_hot())}
                   for p in traj.points],
    }


def trajectory_to_strokes_obj(traj: Trajectory) -> dict:
    return {
        "canvas": [traj.canvas_side, traj.canvas_side],
        "strokes": [[[p.x, p.y] for p in st.points] for st in strokes_of(traj)],
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
    if "points" in obj:
        if not isinstance(obj["points"], list):
            raise ValueError("'points' must be a list of point records")
        points = []
        for i, rec in enumerate(obj["points"]):
            try:
                state = PenState.from_one_hot(rec["s"])
                points.append(TrajPoint(float(rec["x"]), float(rec["y"]), state))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid point at index {i}: {exc}") from exc
        return Trajectory(tuple(points), canvas_side=side)
    if "strokes" in obj:
        strokes = obj["strokes"]
        if not isinstance(strokes, list) or not strokes:
            raise ValueError("strokes form must contain a list of at least one stroke")
        points = []
        for si, stroke in enumerate(strokes):
            if not isinstance(stroke, list) or not stroke:
                raise ValueError(f"stroke {si} must be a non-empty list of points")
            for j, xy in enumerate(stroke):
                if not isinstance(xy, (list, tuple)) or len(xy) != 2:
                    raise ValueError(f"stroke {si} point {j} must be an [x, y] pair")
                state = PenState.UP if j == len(stroke) - 1 else PenState.DOWN
                try:
                    points.append(TrajPoint(float(xy[0]), float(xy[1]), state))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"invalid stroke {si} point {j}: {exc}") from exc
        last = points[-1]
        points.append(TrajPoint(last.x, last.y, PenState.EOS))
        return Trajectory(tuple(points), canvas_side=side)
    raise ValueError("trajectory object needs a 'points' or 'strokes' key")


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

"""Trajectory data model, stroke segmentation, and preprocessing.

A trajectory is an ordered sequence of pen-tip points on a square canvas,
stored as two read-only columns: `xy` (float64, shape (n, 2)) and `state`
(int8, shape (n,), holding `PenState` values).  A pen-down point draws a
segment to its successor, a pen-up point closes its stroke, and an optional
final end-of-sequence marker carries no ink.  Stroke boundaries are derived
from `state` (`stroke_bounds`), never stored.  The file reader and writer
go straight between JSON and the columns.  `TrajPoint` is a per-point view,
built on each use of `.points`, for tests and benchmarks.  All types are
immutable values and all operations are pure functions.  `join_strokes` and
`error_sim`'s drift rows move checked rows, so `_trusted` checks only finiteness;
other builders' input or arithmetic (scaling, interpolation) gets every check.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

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
        return cls(vec.index(1))


_STATES = tuple(PenState)  # indexed by value
_ONE_HOT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # indexed by value
_STATE_OF = {vec: value for value, vec in enumerate(_ONE_HOT)}  # the parser's fast path
DOWN, UP, EOS = (s.value for s in _STATES)


def pixel_of(x: float, y: float) -> tuple[int, int]:
    """Round half-up to the containing pixel."""
    return (math.floor(x + 0.5), math.floor(y + 0.5))


def _check_finite(x, y) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite coordinates ({x}, {y})")


def _whole(value, name: str, low: int = 0) -> int:
    """value as an int; ValueError, naming it, unless it is a whole number >= low."""
    if not (value >= low and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number of at least {low}, got {value}")
    return int(value)


def _is_finite(value) -> bool:
    """False for NaN, +-inf and an int beyond float range, where math.isfinite raises."""
    return abs(value) <= sys.float_info.max


def _canvas_side(value) -> int:
    """value as an int; ValueError unless it is a whole number >= 1 within float range."""
    side = _whole(value, "canvas side", 1)
    if not _is_finite(side):  # 10**400 is whole, but every float it meets overflows
        raise ValueError(f"canvas side must be finite, got {side}")
    return side


def _ok(result):
    """result, or raise it if it is the ValueError a batch gave in its place."""
    if isinstance(result, ValueError):
        raise result
    return result


# Cells of one `_stacks` stack: 2 MiB of a DTW chunk's float64 table (its
# distances are built in place, so the table is most of its working memory; about
# 100 of the sweeps' 49-point pairs), or 256 KiB of bool masks (64 canvases of
# 64 x 64 px).  At 2**19 a 1,600-pair sweep's working memory passes a tenth of its table.
# A stack is also cut before padding would fill half of it, which only unequal
# DTW pairs can do: a mask stack holds one shape.
_STACK_CELLS = 1 << 18


def _stacks(items):
    """(largest shape, indices) of each stack of (index, key, shape) items,
    sorted stably by (key, shape).  A stack holds one key and grows while its
    count times its largest height times its largest width stays within
    `_STACK_CELLS` and within twice the cells its items use, the sum of their
    own height times width (or holds one item)."""
    stack, key, h, w, used = [], None, 0, 0, 0
    for index, k, (m, n) in sorted(items, key=itemgetter(1, 2)):
        wi = n if n > w else w  # m is the stack's largest height: sorted within a key
        cells = (len(stack) + 1) * m * wi
        if stack and (k != key or cells > _STACK_CELLS or cells > 2 * (used + m * n)):
            yield (h, w), stack
            stack, wi, used = [], n, 0
        stack.append(index)
        key, h, w, used = k, m, wi, used + m * n
    if stack:
        yield (h, w), stack


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

    @classmethod
    def _trusted(cls, xy: np.ndarray, state: np.ndarray, canvas_side: int) -> "Trajectory":
        traj = cls.__new__(cls)  # float64/int8 columns a builder proved valid
        traj._keep(xy, state, canvas_side)
        return traj

    def _set(self, xy: np.ndarray, state, canvas_side: int) -> None:
        state = np.array(state)
        if len(state) == 0:
            raise ValueError("trajectory must contain at least one point")
        canvas_side = _canvas_side(canvas_side)
        if xy.shape != (len(state), 2) or state.ndim != 1:
            raise ValueError(f"xy of shape {xy.shape} does not match "
                             f"{len(state)} pen states")
        if not ((state == DOWN) | (state == UP) | (state == EOS)).all():
            raise ValueError("pen states must be 0 (down), 1 (up) or 2 (end of sequence)")
        eos = np.flatnonzero(state == EOS)
        if len(eos) > 1:
            raise ValueError("at most one end-of-sequence point is allowed")
        if len(eos) and eos[0] != len(state) - 1:
            raise ValueError("the end-of-sequence point must be last")
        self._keep(xy, state.astype(np.int8), canvas_side)

    def _keep(self, xy: np.ndarray, state: np.ndarray, canvas_side: int) -> None:
        if not np.isfinite(xy).all():  # kept for `_trusted` too: a moved row can overflow
            _check_finite(*xy[~np.isfinite(xy).all(axis=1)][0].tolist())
        xy.flags.writeable = state.flags.writeable = False
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
    return Trajectory._trusted(xy, state, like.canvas_side)


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
    side = _canvas_side(side)
    drawn = traj.drawn_xy()
    if not len(drawn):
        raise ValueError("trajectory has no drawn points to normalize")
    lo, hi = drawn.min(axis=0).tolist(), drawn.max(axis=0).tolist()
    span = max(hi[0] - lo[0], hi[1] - lo[1])  # Python floats: an overflow is inf, no warning
    if span == math.inf:
        raise ValueError("drawn points span more than the float range")
    with np.errstate(over="ignore", invalid="ignore"):  # a far EOS row, a subnormal span
        mapped = (traj.xy - lo) * ((side - 1) / span) if span else traj.xy - lo + (side - 1) / 2.0
    return Trajectory.from_arrays(mapped, traj.state, side)  # ValueError on an overflowed row


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


def resample_many(jobs) -> list[Trajectory | ValueError]:
    """`resample` of each (trajectory, factor) job, in input order, or the
    ValueError it would raise.  factor >= 1 subdivides each within-stroke
    segment by linear interpolation so a stroke of n points ends up with
    round(factor*(n-1))+1 points; factor < 1 decimates uniformly, always
    keeping stroke endpoints and closing states.  The factor < 1 jobs and the
    factor >= 1 jobs each take one pass of numpy calls over their strokes,
    which tile the drawn rows (`stroke_bounds`); each point gets a lone
    stroke's arithmetic.  If numpy cannot count or allocate a pass's rows, each
    of its jobs is rerun as a batch of one, so only jobs too large alone fail."""
    out: list = [None] * len(jobs)
    passes: dict = {}  # (factor >= 1) -> [(index, traj, factor, stroke lengths)]
    for index, (traj, factor) in enumerate(jobs):
        lens = np.array([b - a for a, b in stroke_bounds(traj)], dtype=np.intp)
        if not (factor > 0 and _is_finite(factor)):
            out[index] = ValueError(f"resample factor must be positive and finite, got {factor}")
        elif factor >= 1 and factor * (lens.max(initial=1) - 1) >= 2 ** 53:
            out[index] = ValueError(f"resample factor {factor} gives a stroke over 2**53 points")
        else:
            passes.setdefault(factor >= 1, []).append((index, traj, factor, lens))
    for up, group in passes.items():
        indices, trajs, factors, job_lens = zip(*group)
        drawn = [len(traj.drawn_xy()) for traj in trajs]
        counts = [len(own) for own in job_lens]  # strokes per job
        xy = np.concatenate([traj.xy[:n] for traj, n in zip(trajs, drawn)])
        lens = np.concatenate(job_lens)
        stops = np.cumsum(lens)  # the strokes tile the rows
        starts = stops - lens
        closing = np.concatenate([traj.state[:n] for traj, n in zip(trajs, drawn)])[stops - 1]
        factor = np.repeat(np.array(factors, dtype=np.float64), counts)
        if not up:
            # rows at `target` rounded even steps per stroke never decrease: dedupe drops repeats
            target = np.where(lens > 1, np.maximum(_rhu(factor * (lens - 1)) + 1, 2), 1)
            stroke = np.repeat(np.arange(len(lens)), target)
            k = np.arange(len(stroke)) - np.repeat(np.cumsum(target) - target, target)
            rows = starts[stroke] + _rhu(k * (lens - 1)[stroke] / np.maximum(target - 1, 1)[stroke])
            keep = np.diff(rows, prepend=-1) != 0
            new_xy, stroke = xy[rows[keep]], stroke[keep]
        else:
            # a stroke's row i > 0 ends max(rhu(factor*i) - rhu(factor*(i-1)), 1) pieces
            # interpolated from row i-1, its row 0 one; every row is kept exactly
            local = np.arange(len(xy)) - np.repeat(starts, lens)
            pieces = np.where(local > 0, np.maximum(
                np.diff(_rhu(np.repeat(factor, lens) * local), prepend=0), 1), 1)
            try:
                end = np.repeat(np.arange(len(xy)), pieces)
            except (MemoryError, ValueError):  # more rows than numpy can count or allocate
                for index, traj, job_factor in zip(indices, trajs, factors):
                    out[index] = resample_many([(traj, job_factor)])[0] if len(group) > 1 else \
                        ValueError(f"resample factor {job_factor} gives too many points to hold")
                continue
            j = np.arange(len(end)) + 1 - np.repeat(np.cumsum(pieces) - pieces, pieces)
            a, b = xy[end - (local[end] > 0)], xy[end]
            with np.errstate(over="ignore", invalid="ignore"):  # overflow: a non-finite row
                new_xy = a + (b - a) * (j / pieces[end])[:, None]
            ends = j == pieces[end]
            new_xy[ends] = b[ends]
            stroke = np.repeat(np.arange(len(lens)), lens)[end]
        state = np.where(np.diff(stroke, append=len(lens)) != 0, closing[stroke], DOWN)
        cuts = np.searchsorted(stroke, np.cumsum(counts)).tolist()  # one past each job's rows
        for index, traj, n, lo, hi in zip(indices, trajs, drawn, [0] + cuts, cuts):
            try:
                out[index] = Trajectory.from_arrays(
                    np.concatenate([new_xy[lo:hi], traj.xy[n:]]),
                    np.concatenate([state[lo:hi], traj.state[n:]]), traj.canvas_side)
            except ValueError as exc:  # an interpolated row past the float range
                out[index] = exc
    return out


def resample(traj: Trajectory, factor: float) -> Trajectory:
    """Change the sampling density of every stroke by `factor`: a batch of
    one through `resample_many`."""
    return _ok(resample_many([(traj, factor)])[0])


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
        return max(_whole(float(v), "canvas side", 1) for v in canvas)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"canvas must hold two positive whole numbers, got {canvas!r}") from exc


def trajectory_from_obj(obj) -> Trajectory:
    """Parse either canonical form (points or strokes), checking each row as it is read."""
    if not isinstance(obj, dict):
        raise ValueError("trajectory file must contain a JSON object")
    side = _canvas_side_of(obj)
    xy, state = [], []
    if "points" in obj:
        if not isinstance(obj["points"], list):
            raise ValueError("'points' must be a list of point records")
        try:
            for rec in obj["points"]:
                s = rec["s"]
                try:
                    state.append(_STATE_OF[tuple(s)])
                except (KeyError, TypeError):  # not a one-hot vector: its own error
                    state.append(PenState.from_one_hot(s).value)
                x, y = float(rec["x"]), float(rec["y"])
                if not (math.isfinite(x) and math.isfinite(y)):
                    _check_finite(x, y)
                xy.append((x, y))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid point at index {len(xy)}: {exc}") from exc
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
                    if not (math.isfinite(x) and math.isfinite(y)):
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
        if not obj["strokes"]:  # the reader rejects a strokes file without strokes
            raise ValueError("strokes form needs at least one drawn point")
    else:
        raise ValueError(f"unknown trajectory form {form!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")  # json.dump's bytes, from the C one-shot encoder

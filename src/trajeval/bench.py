"""Batch sensitivity / invariance curve runners with metric aggregation.

Runs a seeded error simulation over a trajectory corpus, averages the chosen
metrics per error magnitude, and min-max normalizes each curve to [0, 1] for
trend comparison.  `score_pairs` is the one place (ground truth, prediction)
pairs are scored, each render and alignment done once, and `_check_metrics`
the one rule for a metric list; every sweep (one call per window of `_rows`)
and `trajeval evaluate` (`score_pair`, a batch of one) go through both.  A
seeded synthetic corpus generator ships here so the runners need no datasets.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .error_sim import ERROR_KINDS, _check_magnitude, drift_points, perturb_row
from .glyph_metrics import _aiou_many
from .raster import BinaryMask, dilate3x3, rasterize, rasterize_many
from .seq_metrics import dtw_many, rmse
from .traj_core import (DOWN, EOS, UP, Trajectory, _canvas_side, _is_finite, _ok, _whole,
                        normalize_to_canvas, resample_many)

GLYPH_METRICS = ("aiou", "iou")
DTW_METRICS = ("ldtw", "dtw")
METRICS = GLYPH_METRICS + DTW_METRICS + ("rmse",)
SENSITIVITY_KINDS = tuple(ERROR_KINDS)
INVARIANCE_TRANSFORMS = ("stroke-width", "sample-rate")

DEFAULT_GRIDS = {
    "stroke-insert": (1, 2, 3, 4, 5),
    "stroke-delete": (1, 2, 3, 4, 5),
    "point-drift": (1, 2, 3, 4, 5, 6, 7, 8),
    "stroke-drift": (1, 2, 3, 4, 5, 6, 7, 8),
    "stroke-width": (0, 1, 2, 3, 4),
    "sample-rate": (0.5, 1.0, 2.0, 4.0),
}

DEFAULT_BASE_DRIFT = 2.0


@dataclass(frozen=True)
class CurveReport:
    metric: str
    grid: tuple
    raw_mean: tuple
    normalized: tuple
    samples_used: tuple
    samples_skipped: tuple
    seed: int


def normalize_curve(values) -> list[float]:
    """Min-max normalization to [0, 1] over the defined values.

    An undefined (NaN) value stays NaN; a curve with a single defined level
    maps its defined values to zero.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot normalize an empty curve")
    defined = [v for v in vals if not math.isnan(v)]
    lo, hi = (min(defined), max(defined)) if defined else (0.0, 0.0)
    if hi == lo:
        return [v if math.isnan(v) else 0.0 for v in vals]
    return [(v - lo) / (hi - lo) for v in vals]


def derive_seed(seed: int, index: int) -> int:
    """Per-sample seed, schedule-independent."""
    return (seed ^ index) & 0xFFFFFFFFFFFFFFFF


def _check_metrics(metrics) -> tuple[str, ...]:
    """The names as a tuple; ValueError if one is unknown, none is given, or one repeats."""
    names = tuple(metrics)
    for name in names:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}; choose from {','.join(METRICS)}")
    if not names:
        raise ValueError("empty metric selection")
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"metric {name!r} given twice")
    return names


def _score(gt, pred, metrics, glyph, aligned, rmse_pred):
    """(values, errors) of one pair, from its glyph scores and alignment."""
    values, errors = {}, {}
    for name in metrics:
        need = "RMSE needs" if name == "rmse" else "sequence metrics need"
        try:
            if name in GLYPH_METRICS:
                first, result = _ok(glyph)
                values[name] = result.score if name == "aiou" else first
            elif isinstance(gt, BinaryMask):
                raise ValueError(f"{need} a trajectory ground truth")
            elif isinstance(pred, BinaryMask):
                raise ValueError(f"{need} a trajectory prediction")
            elif name == "rmse":
                values[name] = rmse(gt, pred if rmse_pred is None else _ok(rmse_pred))
            else:
                values[name] = _ok(aligned).cost if name == "dtw" else _ok(aligned).ldtw
            if not math.isfinite(values[name]):  # squared distances past the float range
                raise ValueError(f"{name} overflows float64: the points lie too far apart")
        except ValueError as exc:
            values[name] = None
            errors[name] = exc
    return values, errors


def score_pairs(pairs, metrics, k_max: int = 10, rmse_preds=None) -> list[tuple[dict, dict]]:
    """Score each (ground truth, prediction) pair of a list on each named metric.

    gt and pred are trajectories or binary masks; a mask scores glyph metrics
    only.  Each layer runs once per call, whatever the order of the pairs: one
    `dtw_many` batch aligns every trajectory pair, one `rasterize_many` call
    per canvas side renders each trajectory object once on the canvas of its
    pair's ground truth (a mask's width, else `canvas_side`), and one
    `_aiou_many` call gives IoU and AIoU of every pair.  A non-None
    rmse_preds[i] stands in for pred i in RMSE, or is the error RMSE records.

    Returns one (values, errors) per pair, keyed by metric in metric order: a
    metric that raises ValueError gets value None and its exception in errors
    (for a glyph metric the prediction's render error first, then the ground
    truth's), and so does a sequence score that overflows to inf.  A bad
    metric list, a k_max that is not a whole number >= 0 and an rmse_preds
    whose length is not the number of pairs raise before any work.
    """
    metrics = _check_metrics(metrics)
    k_max = _whole(k_max, "k_max")
    rmse_preds = [None] * len(pairs) if rmse_preds is None else list(rmse_preds)
    if len(rmse_preds) != len(pairs):
        raise ValueError(f"rmse_preds has {len(rmse_preds)} entries for {len(pairs)} pairs")
    dtw_asked = any(name in DTW_METRICS for name in metrics)
    align = [dtw_asked and not isinstance(gt, BinaryMask) and not isinstance(pred, BinaryMask)
             for gt, pred in pairs]
    aligned = iter(dtw_many([pair for pair, a in zip(pairs, align) if a]) if any(align) else ())
    glyph = any(name in GLYPH_METRICS for name in metrics)
    sides = [gt.width if isinstance(gt, BinaryMask) else gt.canvas_side
             for gt, _ in pairs] if glyph else []
    trajs: dict[int, dict[int, Trajectory]] = {}  # side -> id -> each trajectory drawn on it
    for side, pair in zip(sides, pairs):
        trajs.setdefault(side, {}).update((id(x), x) for x in pair if not isinstance(x, BinaryMask))
    masks = {(side, key): mask for side, by_id in trajs.items() if by_id
             for key, mask in zip(by_id, rasterize_many(list(by_id.values()), side))}
    glyph_scores = _aiou_many([[x if isinstance(x, BinaryMask) else masks[side, id(x)]
                                for x in pair] for side, pair in zip(sides, pairs)],
                              k_max if "aiou" in metrics else 0) if glyph else [None] * len(pairs)
    return [_score(gt, pred, metrics, glyph_scores[i], next(aligned) if align[i] else None,
                   rmse_preds[i]) for i, (gt, pred) in enumerate(pairs)]


def score_pair(gt, pred, metrics, k_max: int = 10, rmse_pred=None) -> tuple[dict, dict]:
    """`score_pairs` of the one pair (gt, pred), with rmse_pred its RMSE stand-in."""
    return score_pairs([(gt, pred)], metrics, k_max, [rmse_pred])[0]


def _aggregate(grid, kept: dict, samples: int, seed: int) -> list[CurveReport]:
    """kept[name][mi] is metric name's values at magnitude mi; the other samples were skipped."""
    reports = []
    for name, columns in kept.items():
        means = [math.fsum(v) / len(v) if v else math.nan for v in columns]
        reports.append(CurveReport(
            metric=name, grid=tuple(grid), raw_mean=tuple(means),
            normalized=tuple(normalize_curve(means)), samples_used=tuple(map(len, columns)),
            samples_skipped=tuple(samples - len(v) for v in columns), seed=seed))
    return reports


def _check_run_inputs(corpus, kind, grid, k_max):
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if not grid:
        raise ValueError("magnitude grid must be non-empty")
    for value in grid:
        if not _is_finite(value):
            raise ValueError(f"magnitude grid must be finite, got {value}")
    if list(grid) != sorted(grid):
        raise ValueError("magnitude grid must be ascending")
    for value in grid:
        _check_magnitude(kind, value)
    _whole(k_max, "k_max")


def _rows(glyphs, kind: str, grid, seeds) -> list[list]:
    """Per glyph, one (gt, pred) pair per magnitude of grid, or the ValueError
    that skips it; seeds[i] seeds glyph i.  A sensitivity kind makes one
    `perturb_row` call per glyph, and the sample-rate sweep one `resample_many`
    call over every glyph."""
    if kind in SENSITIVITY_KINDS:
        return [[pred if isinstance(pred, ValueError) else (traj, pred)
                 for pred in perturb_row(traj, kind, grid, s)] for traj, s in zip(glyphs, seeds)]
    if kind == "sample-rate":
        drifted = [drift_points(traj, DEFAULT_BASE_DRIFT, s) for traj, s in zip(glyphs, seeds)]
        preds = iter(resample_many([(pred, factor) for pred in drifted for factor in grid]))
        return [[(traj, _ok(next(preds))) for _ in grid] for traj in glyphs]
    return [_width_row(traj, grid) for traj in glyphs]


def _width_row(traj, grid) -> list:
    """One (widened, width-1) mask pair per width of grid, or the ValueError that skips it."""
    try:
        pred_mask = gt_mask = rasterize(traj)
    except ValueError as exc:  # a point outside the canvas: no width can be scored
        return [exc] * len(grid)
    row, done = [], 0
    for k in map(int, grid):  # exact: _check_run_inputs proved it whole, ascending
        gt_mask, done = dilate3x3(gt_mask, k - done), k
        row.append(ValueError(f"stroke width {k} fills the canvas") if gt_mask.bits.all()
                   else (gt_mask, pred_mask))
    return row


# Glyphs per `score_pairs` call of a sweep: a window's rows, masks and DTW chunks
# are freed before the next is built, so a sweep's working memory does not grow
# with the corpus.  256 of the default glyphs give `dtw_many` 30 or more full chunks.
_WINDOW = 256


def _window(corpus, start: int, kind: str, grid, kept: dict, seed: int, k_max: int) -> None:
    """Append to kept[name][mi] each value of corpus[start:start + _WINDOW] that
    one `score_pairs` call over their `_rows` defines (a ValueError skips the
    sample: nothing is appended); glyph i is seeded by `derive_seed(seed, i)`."""
    glyphs = corpus[start:start + _WINDOW]
    rows = _rows(glyphs, kind, grid, [derive_seed(seed, start + i) for i in range(len(glyphs))])
    scored = [mi for row in rows for mi, p in enumerate(row) if not isinstance(p, ValueError)]
    pairs = [p for row in rows for p in row if not isinstance(p, ValueError)]
    for mi, (values, _) in zip(scored, score_pairs(pairs, tuple(kept), k_max)):
        for name, value in values.items():
            if value is not None:
                kept[name][mi].append(value)


def _run(corpus, kind: str, grid, metrics, seed: int, k_max: int) -> list[CurveReport]:
    """Curves of the corpus, scored into value columns one `_window` of glyphs at a time."""
    metrics = _check_metrics(metrics)
    grid = tuple(grid if grid is not None else DEFAULT_GRIDS[kind])
    _check_run_inputs(corpus, kind, grid, k_max)
    seed = _whole(seed, "seed")  # derive_seed would mask -1 to 64 bits, and fail on 2.5
    kept = {name: [array("d") for _ in grid] for name in metrics}
    for start in range(0, len(corpus), _WINDOW):
        _window(corpus, start, kind, grid, kept, seed, k_max)
    return _aggregate(grid, kept, len(corpus), seed)


def sensitivity_run(corpus, kind: str, grid=None, metrics=None,
                    seed: int = 0, k_max: int = 10) -> list[CurveReport]:
    """Error-sensitivity curves: mean metric value per error magnitude.

    Metrics default to AIoU and LDTW.  A bad metric list, a k_max or seed
    that is not a whole number >= 0 and a magnitude no glyph can take (a
    drift <= 0, a stroke count < 1 or not a whole number) are rejected up
    front; one a glyph cannot take (deleting all its strokes) is counted as a
    skipped sample.
    """
    if kind not in SENSITIVITY_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {SENSITIVITY_KINDS}")
    return _run(corpus, kind, grid, ("aiou", "ldtw") if metrics is None else metrics,
                seed, k_max)


def invariance_run(corpus, transform: str, grid=None, metrics=None, seed: int = 0,
                   k_max: int = 10) -> list[CurveReport]:
    """Nuisance-transform curves: stroke width (glyph metrics) or sample rate
    (sequence metrics).

    In sample-rate mode the prediction is the ground truth under a fixed base
    point-drift (2 px) so sequence metrics start non-zero.  In stroke-width
    mode it is the clean glyph's mask, since any misalignment couples the
    glyph scores to the width axis, and the ground truth is that mask dilated
    k times (so sequence metrics are skipped).  A sample is skipped at a width
    whose mask fills the canvas, and at every width if it cannot be rendered.
    The sample-rate sweep resamples every (glyph, factor) of a window in one
    `resample_many` call, and the first job it rejects ends the sweep.  The
    stroke-width sweep holds a window's widened masks until its `score_pairs`
    call.
    """
    if transform not in INVARIANCE_TRANSFORMS:
        raise ValueError(
            f"unknown transform {transform!r}; expected one of {INVARIANCE_TRANSFORMS}")
    if metrics is None:
        metrics = GLYPH_METRICS if transform == "stroke-width" else ("dtw", "ldtw")
    return _run(corpus, transform, grid, metrics, seed, k_max)


# --- report serialization ---------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else f"{float(v):.6f}"


def _json_number(v) -> float | None:
    return None if v is None or math.isnan(v) else round(float(v), 6)


_COLUMNS = ("metric", "magnitude", "raw_mean", "normalized", "samples_used", "samples_skipped")


def _report_rows(reports, number) -> list[tuple]:
    """One row of `_COLUMNS` per (metric, magnitude), sorted by metric, the
    magnitude, mean and normalized value written by `number`."""
    return [(rep.metric, number(magnitude), number(rep.raw_mean[mi]), number(rep.normalized[mi]),
             rep.samples_used[mi], rep.samples_skipped[mi])
            for rep in sorted(reports, key=lambda r: r.metric)
            for mi, magnitude in enumerate(rep.grid)]


def reports_to_csv(reports) -> str:
    """Deterministic CSV, one row per (metric, magnitude)."""
    rows = [",".join(map(str, row)) for row in _report_rows(reports, _fmt)]
    return "\n".join([",".join(_COLUMNS)] + rows) + "\n"


def reports_to_json(reports) -> str:
    """JSON mirror of the CSV content; a magnitude with no usable samples has
    no mean, written null, not NaN, so the JSON stays valid."""
    rows = [dict(zip(_COLUMNS, row)) for row in _report_rows(reports, _json_number)]
    return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"


# --- synthetic corpus -------------------------------------------------------

def make_synthetic_corpus(n: int, seed: int = 0, side: int = 64,
                          stroke_range=(6, 8), points_range=(5, 9),
                          step_range=(5.0, 11.0), wiggle: float = 0.9) -> list[Trajectory]:
    """Seeded random multi-stroke glyphs, normalized to the canvas.

    Each stroke is a random walk: per-point heading change is uniform in
    [-wiggle, wiggle] radians and step length uniform in step_range, so small
    wiggle yields smooth curves and large wiggle jagged zigzags.  Every
    parameter is checked before the first draw."""
    n, seed = _whole(n, "corpus size", 1), _whole(seed, "seed")
    if side < 9:  # strokes start at least 4 px inside every edge
        raise ValueError(f"side must be at least 9 for synthetic glyphs, got {side}")
    side = _canvas_side(side)  # NaN, inf, 9.5 and 10**400 pass the test above
    s_low = _whole(stroke_range[0], "stroke_range low end", 1)
    s_high = _whole(stroke_range[1], "stroke_range high end", s_low)
    p_low = _whole(points_range[0], "points_range low end", 1)
    p_high = _whole(points_range[1], "points_range high end", p_low)
    for name, given, (low, high) in (("step_range", step_range, step_range),
                                     ("wiggle", wiggle, (-wiggle, wiggle))):
        if not (_is_finite(low) and _is_finite(high)):
            raise ValueError(f"{name} must be finite, got {given}")
        if not _is_finite(high - low):  # numpy's uniform draw refuses such a span
            raise ValueError(f"{name} spans past the float range, got {given}")
    # (low, high) columns of a stroke's one uniform draw: x, y, heading, then turn, step per point
    bounds = np.array([(4.0, side - 5.0)] * 2 + [(0.0, 2.0 * math.pi)]
                      + [(-wiggle, wiggle), step_range] * (p_high - 1)).T
    corpus = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        n_strokes = int(rng.integers(s_low, s_high + 1))
        xy: list[tuple[float, float]] = []
        state: list[int] = []
        for _ in range(n_strokes):
            m = int(rng.integers(p_low, p_high + 1))
            x, y, heading, *walk = rng.uniform(*bounds[:, :1 + 2 * m]).tolist()
            xy.append((x, y))
            for turn, step in zip(walk[::2], walk[1::2]):
                heading += turn
                x = min(max(x + step * math.cos(heading), 0.0), side - 1.0)
                y = min(max(y + step * math.sin(heading), 0.0), side - 1.0)
                xy.append((x, y))
            state.extend([DOWN] * (m - 1) + [UP])
        xy.append(xy[-1])
        state.append(EOS)
        corpus.append(normalize_to_canvas(Trajectory.from_arrays(xy, state, side)))
    return corpus

"""Batch sensitivity / invariance curve runners with metric aggregation.

Runs a seeded error simulation over a trajectory corpus, averages the chosen
metrics per error magnitude, and min-max normalizes each curve to [0, 1] for
trend comparison.  `score_pair` is the one place a (ground truth, prediction)
pair is scored; the runners and `trajeval evaluate` all go through it.  A seeded synthetic corpus generator ships here so the
runners need no external datasets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .error_sim import (ERROR_KINDS, change_sample_rate, drift_points, perturb,
                        widen_strokes)
from .glyph_metrics import aiou, iou
from .raster import BinaryMask, binarize, rasterize
from .seq_metrics import dtw, rmse
from .traj_core import DOWN, EOS, UP, Trajectory, normalize_to_canvas

GLYPH_METRICS = ("aiou", "iou")
METRICS = GLYPH_METRICS + ("ldtw", "dtw", "rmse")
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


def score_pair(gt, pred, metrics, k_max: int = 10, side: int | None = None,
               gt_mask: BinaryMask | None = None,
               rmse_pred: Trajectory | None = None) -> tuple[dict, dict]:
    """Score one (ground truth, prediction) pair on each named metric.

    gt and pred are trajectories or binary masks; a mask ground truth (a PGM
    scan, a widened image) scores glyph metrics only.  Glyph metrics render
    the prediction first, then the ground truth, at `side` (default: each
    trajectory's canvas; a mask ground truth sets it); with no glyph metric
    nothing is rendered.  gt_mask is gt already rendered, for callers that
    score many predictions against one ground truth; rmse_pred, if given,
    replaces pred for RMSE.

    Returns (values, errors) keyed by metric in metric order: a metric that
    raises ValueError gets value None and its exception in errors, and
    leaves the other metrics alone.
    """
    if isinstance(gt, BinaryMask):
        gt, gt_mask = None, gt
    if gt_mask is not None:
        side = gt_mask.width
    values: dict[str, float | None] = {}
    errors: dict[str, ValueError] = {}
    pred_mask = dtw_result = None
    for name in metrics:
        try:
            if name in GLYPH_METRICS:
                if pred_mask is None:
                    pred_mask = pred if isinstance(pred, BinaryMask) else rasterize(pred, side)
                if gt_mask is None:
                    gt_mask = rasterize(gt, side)
                values[name] = (aiou(gt_mask, pred_mask, k_max).score if name == "aiou"
                                else iou(gt_mask, pred_mask))
            elif name in ("dtw", "ldtw"):
                if gt is None:
                    raise ValueError("sequence metrics need a trajectory ground truth")
                if dtw_result is None:
                    dtw_result = dtw(gt, pred)
                values[name] = dtw_result.cost if name == "dtw" else dtw_result.ldtw
            elif name == "rmse":
                if gt is None:
                    raise ValueError("RMSE needs a trajectory ground truth")
                values[name] = rmse(gt, pred if rmse_pred is None else rmse_pred)
            else:
                raise KeyError(f"unknown metric {name!r}")
        except ValueError as exc:
            values[name] = None
            errors[name] = exc
    return values, errors


def _aggregate(grid, metrics, per_sample: list, seed: int) -> list[CurveReport]:
    """per_sample[i][mi] is a metric->value dict for sample i at magnitude mi."""
    reports = []
    for name in metrics:
        means, used, skipped = [], [], []
        for mi in range(len(grid)):
            vals = [row[mi][name] for row in per_sample if row[mi][name] is not None]
            n_skip = len(per_sample) - len(vals)
            means.append(math.fsum(vals) / len(vals) if vals else math.nan)
            used.append(len(vals))
            skipped.append(n_skip)
        norm = normalize_curve(means)
        reports.append(CurveReport(metric=name, grid=tuple(grid),
                                   raw_mean=tuple(means), normalized=tuple(norm),
                                   samples_used=tuple(used),
                                   samples_skipped=tuple(skipped), seed=seed))
    return reports


def _check_run_inputs(corpus, grid):
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if not grid:
        raise ValueError("magnitude grid must be non-empty")
    if list(grid) != sorted(grid):
        raise ValueError("magnitude grid must be ascending")


def sensitivity_run(corpus, kind: str, grid=None, metrics=("aiou", "ldtw"),
                    seed: int = 0, k_max: int = 10) -> list[CurveReport]:
    """Error-sensitivity curves: mean metric value per error magnitude.

    A magnitude no glyph can take (a drift <= 0, a stroke count < 1) is
    rejected up front; one a glyph cannot take (deleting all its strokes)
    is counted as a skipped sample.
    """
    if kind not in SENSITIVITY_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {SENSITIVITY_KINDS}")
    grid = tuple(grid if grid is not None else DEFAULT_GRIDS[kind])
    _check_run_inputs(corpus, grid)
    for value in grid:
        if kind in ("point-drift", "stroke-drift") and not value > 0:
            raise ValueError(f"{kind} distance must be positive, got {value}")
        if kind in ("stroke-insert", "stroke-delete") and not 1 <= value < math.inf:
            raise ValueError(f"{kind} count must be finite and at least 1, got {value}")
    glyph = any(name in GLYPH_METRICS for name in metrics)
    per_sample = []
    for i, traj in enumerate(corpus):
        sseed = derive_seed(seed, i)
        try:
            gt_mask = rasterize(traj) if glyph else None
        except ValueError:
            gt_mask = None  # score_pair meets the same error and skips the metric
        rows = []
        for magnitude in grid:
            try:
                pred = perturb(traj, kind, magnitude, sseed)
            except ValueError:
                rows.append(dict.fromkeys(metrics))
                continue
            rows.append(score_pair(traj, pred, metrics, k_max, gt_mask=gt_mask)[0])
        per_sample.append(rows)
    return _aggregate(grid, metrics, per_sample, seed)


def invariance_run(corpus, transform: str, grid=None, metrics=None, seed: int = 0,
                   k_max: int = 10, base_drift: float | None = None) -> list[CurveReport]:
    """Nuisance-transform curves: stroke width (glyph metrics) or sample rate
    (sequence metrics).

    In sample-rate mode the prediction is the ground truth under a fixed base
    point-drift (default 2 px) so sequence metrics start non-zero; in
    stroke-width mode the default prediction is the clean trajectory, since
    any misalignment couples the glyph scores to the width axis and masks the
    adaptation effect being measured.  Pass base_drift explicitly to override
    either default (0 keeps the prediction clean).  In stroke-width mode the
    ground truth is the widened image, so sequence metrics are skipped.
    """
    if transform not in INVARIANCE_TRANSFORMS:
        raise ValueError(
            f"unknown transform {transform!r}; expected one of {INVARIANCE_TRANSFORMS}")
    grid = tuple(grid if grid is not None else DEFAULT_GRIDS[transform])
    _check_run_inputs(corpus, grid)
    for value in grid:
        if transform == "sample-rate" and not value > 0:
            raise ValueError(f"sample-rate factor must be positive, got {value}")
        if transform == "stroke-width" and not value >= 0:
            raise ValueError(f"stroke-width dilation must be non-negative, got {value}")
    if metrics is None:
        metrics = GLYPH_METRICS if transform == "stroke-width" else ("dtw", "ldtw")
    if base_drift is None:
        base_drift = DEFAULT_BASE_DRIFT if transform == "sample-rate" else 0.0
    per_sample = []
    for i, traj in enumerate(corpus):
        pred = drift_points(traj, base_drift, derive_seed(seed, i)) if base_drift > 0 else traj
        if transform == "stroke-width":
            pred_mask = rasterize(pred)
            rows = [score_pair(binarize(widen_strokes(traj, int(k))), pred_mask,
                               metrics, k_max)[0] for k in grid]
        else:
            rows = [score_pair(traj, change_sample_rate(pred, float(factor)),
                               metrics, k_max)[0] for factor in grid]
        per_sample.append(rows)
    return _aggregate(grid, metrics, per_sample, seed)


# --- report serialization ---------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6f}"


def reports_to_csv(reports) -> str:
    """Deterministic CSV, one row per (metric, magnitude)."""
    lines = ["metric,magnitude,raw_mean,normalized,samples_used,samples_skipped"]
    for rep in sorted(reports, key=lambda r: r.metric):
        for mi, magnitude in enumerate(rep.grid):
            lines.append(",".join([
                rep.metric, _fmt(float(magnitude)), _fmt(rep.raw_mean[mi]),
                _fmt(rep.normalized[mi]), str(rep.samples_used[mi]),
                str(rep.samples_skipped[mi])]))
    return "\n".join(lines) + "\n"


def _json_number(v: float) -> float | None:
    return None if math.isnan(v) else round(v, 6)


def reports_to_json(reports) -> str:
    """JSON mirror of the CSV content."""
    rows = []
    for rep in sorted(reports, key=lambda r: r.metric):
        for mi, magnitude in enumerate(rep.grid):
            rows.append({
                "metric": rep.metric,
                "magnitude": round(float(magnitude), 6),
                # a magnitude with no usable samples has no mean: null, not NaN
                "raw_mean": _json_number(rep.raw_mean[mi]),
                "normalized": _json_number(rep.normalized[mi]),
                "samples_used": rep.samples_used[mi],
                "samples_skipped": rep.samples_skipped[mi],
            })
    return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"


# --- synthetic corpus -------------------------------------------------------

def make_synthetic_corpus(n: int, seed: int = 0, side: int = 64,
                          stroke_range=(6, 8), points_range=(5, 9),
                          step_range=(5.0, 11.0), wiggle: float = 0.9) -> list[Trajectory]:
    """Seeded random multi-stroke glyphs, normalized to the canvas.

    Each stroke is a random walk: per-point heading change is uniform in
    [-wiggle, wiggle] radians and step length uniform in step_range, so small
    wiggle yields smooth curves and large wiggle jagged zigzags.
    """
    if n < 1:
        raise ValueError("corpus size must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative for synthetic glyphs, got {seed}")
    if side < 9:  # strokes start at least 4 px inside every edge
        raise ValueError(f"side must be at least 9 for synthetic glyphs, got {side}")
    corpus = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        n_strokes = int(rng.integers(stroke_range[0], stroke_range[1] + 1))
        xy: list[tuple[float, float]] = []
        state: list[int] = []
        for _ in range(n_strokes):
            m = int(rng.integers(points_range[0], points_range[1] + 1))
            x = float(rng.uniform(4.0, side - 5.0))
            y = float(rng.uniform(4.0, side - 5.0))
            heading = float(rng.uniform(0.0, 2.0 * math.pi))
            xy.append((x, y))
            for _ in range(m - 1):
                heading += float(rng.uniform(-wiggle, wiggle))
                step = float(rng.uniform(step_range[0], step_range[1]))
                x = min(max(x + step * math.cos(heading), 0.0), side - 1.0)
                y = min(max(y + step * math.sin(heading), 0.0), side - 1.0)
                xy.append((x, y))
            state.extend([DOWN] * (m - 1) + [UP])
        xy.append(xy[-1])
        state.append(EOS)
        corpus.append(normalize_to_canvas(Trajectory.from_arrays(xy, state, side)))
    return corpus

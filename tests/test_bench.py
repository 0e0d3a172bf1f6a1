"""Benchmark-runner tests: aggregation, determinism, and report formats."""

import csv
import io
import json
import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

from trajeval import (AlignmentPath, CurveReport, DegenerateHistogramError, OutOfCanvasError,
                      Trajectory, aiou, binarize, dtw, invariance_run, iou, make_synthetic_corpus,
                      normalize_curve, normalize_to_canvas, rasterize, reports_to_csv,
                      reports_to_json, rmse, score_pair, score_pairs, sensitivity_run,
                      strokes_of, widen_strokes)
from trajeval import bench
from trajeval.bench import DEFAULT_GRIDS, derive_seed
from trajeval.error_sim import change_sample_rate, drift_points, perturb
from trajeval.traj_core import DOWN, EOS, UP

from conftest import traj_from_strokes


@pytest.fixture(scope="module")
def corpus():
    return make_synthetic_corpus(12, seed=5)


# --- helpers -----------------------------------------------------------------

def test_normalize_curve_min_max():
    assert normalize_curve([2.0, 4.0, 3.0]) == [0.0, 1.0, 0.5]
    assert normalize_curve([7.0, 7.0]) == [0.0, 0.0]
    with pytest.raises(ValueError):
        normalize_curve([])


def test_normalize_curve_skips_undefined_points():
    out = normalize_curve([2.0, math.nan, 4.0])
    assert out[0] == 0.0 and math.isnan(out[1]) and out[2] == 1.0
    out = normalize_curve([5.0, math.nan])
    assert out[0] == 0.0 and math.isnan(out[1])
    assert all(math.isnan(v) for v in normalize_curve([math.nan, math.nan]))


def test_derive_seed_is_schedule_free():
    assert derive_seed(10, 3) == derive_seed(10, 3)
    assert derive_seed(10, 3) != derive_seed(10, 4)
    assert 0 <= derive_seed(-1, 0) < 2 ** 64


# --- pair scoring ------------------------------------------------------------

def test_score_pair_matches_direct_calls(corpus):
    gt, pred = corpus[0], corpus[1]
    values, errors = score_pair(gt, pred, ("aiou", "iou", "ldtw", "dtw", "rmse"))
    result = dtw(gt, pred)
    assert values["aiou"] == aiou(rasterize(gt), rasterize(pred)).score
    assert values["dtw"] == result.cost
    assert values["ldtw"] == result.cost / len(result.path)
    assert values["rmse"] is None and "length mismatch" in str(errors["rmse"])
    assert list(errors) == ["rmse"]


def test_score_pair_rasterizes_only_for_glyph_metrics(corpus, monkeypatch):
    def no_raster(*args):
        raise AssertionError("rasterized without a glyph metric")
    monkeypatch.setattr(bench, "rasterize", no_raster)
    monkeypatch.setattr(bench, "rasterize_many", no_raster)
    values, errors = score_pair(corpus[0], corpus[1], ("ldtw", "dtw"))
    assert not errors and values["dtw"] > 0


def test_score_pair_aligns_only_for_dtw_metrics(corpus, monkeypatch):
    def no_dtw(*args):
        raise AssertionError("aligned without a DTW metric")
    monkeypatch.setattr(bench, "dtw_many", no_dtw)
    values, errors = score_pair(corpus[0], corpus[1], ("aiou", "iou"))
    assert not errors and 0 < values["iou"] <= values["aiou"] < 1


def test_score_pair_mask_ground_truth_skips_sequence_metrics(corpus):
    values, errors = score_pair(rasterize(corpus[0]), corpus[0], ("iou", "ldtw", "rmse"))
    assert values == {"iou": 1.0, "ldtw": None, "rmse": None}
    assert str(errors["ldtw"]) == "sequence metrics need a trajectory ground truth"
    assert str(errors["rmse"]) == "RMSE needs a trajectory ground truth"


def test_score_pair_mask_prediction_skips_sequence_metrics(corpus):
    gt, pred = corpus[0], corpus[1]
    metrics = ("aiou", "dtw", "ldtw", "iou", "rmse")
    values, errors = score_pair(gt, rasterize(pred), metrics)
    want, _ = score_pair(gt, pred, ("aiou", "iou"))
    assert values == {"aiou": want["aiou"], "dtw": None, "ldtw": None,
                      "iou": want["iou"], "rmse": None}
    assert list(errors) == ["dtw", "ldtw", "rmse"]
    assert str(errors["dtw"]) == "sequence metrics need a trajectory prediction"
    assert str(errors["ldtw"]) == "sequence metrics need a trajectory prediction"
    assert str(errors["rmse"]) == "RMSE needs a trajectory prediction"


def test_score_pair_renders_and_aligns_a_failing_pair_once(monkeypatch):
    """A render or an alignment that fails is done once, and every metric that
    needs it gets the same error."""
    rendered, aligned = [], []
    rasterize_many, dtw_many = bench.rasterize_many, bench.dtw_many
    monkeypatch.setattr(bench, "rasterize_many", lambda trajs, side=None:
                        rendered.append(list(trajs)) or rasterize_many(trajs, side))
    monkeypatch.setattr(bench, "dtw_many",
                        lambda pairs: aligned.append(list(pairs)) or dtw_many(pairs))
    gt = traj_from_strokes([[(30, 10), (20, 20)]])
    off = traj_from_strokes([[(10, 90), (20, 20)]])
    values, errors = score_pair(gt, off, ("aiou", "iou"))
    assert len(rendered) == 1 and [id(t) for t in rendered[0]] == [id(gt), id(off)]
    assert values == {"aiou": None, "iou": None} and aligned == []
    assert isinstance(errors["aiou"], OutOfCanvasError) and errors["iou"] is errors["aiou"]

    rendered.clear()
    empty = Trajectory.from_arrays([(1.0, 1.0)], [EOS])
    values, errors = score_pair(empty, gt, ("ldtw", "dtw"))
    assert len(aligned) == 1 and [tuple(map(id, pair)) for pair in aligned[0]] == \
        [(id(empty), id(gt))]
    assert values == {"ldtw": None, "dtw": None} and rendered == []
    assert str(errors["ldtw"]) == "trajectory has no drawn points to align"
    assert errors["dtw"] is errors["ldtw"]


def test_score_pair_renders_the_prediction_on_the_ground_truths_canvas():
    strokes = [[(10, 20), (30, 25)], [(5, 28), (28, 3)]]
    for gt in (traj_from_strokes(strokes, side=128), rasterize(traj_from_strokes(strokes), 32)):
        values, errors = score_pair(gt, traj_from_strokes(strokes, side=64), ("aiou", "iou"))
        assert values == {"aiou": 1.0, "iou": 1.0} and not errors


def score_pair_reference(gt, pred, metrics, k_max=10, side=None, rmse_pred=None):
    """The former `score_pair`: each metric renders and aligns on demand, each
    trajectory on its own canvas (a mask ground truth sets the side)."""
    gt_mask = pred_mask = dtw_result = None
    if isinstance(gt, bench.BinaryMask):
        gt, gt_mask = None, gt
    if isinstance(pred, bench.BinaryMask):
        pred, pred_mask = None, pred
    if isinstance(gt_mask, bench.BinaryMask):
        side = gt_mask.width
    values, errors = {}, {}
    for name in metrics:
        try:
            if name in bench.GLYPH_METRICS:
                if pred_mask is None:
                    pred_mask = rasterize(pred, side)
                if gt_mask is None:
                    gt_mask = rasterize(gt, side)
                values[name] = (aiou(gt_mask, pred_mask, k_max).score if name == "aiou"
                                else iou(gt_mask, pred_mask))
            elif name in bench.DTW_METRICS:
                if gt is None:
                    raise ValueError("sequence metrics need a trajectory ground truth")
                if pred is None:
                    raise ValueError("sequence metrics need a trajectory prediction")
                if dtw_result is None:
                    dtw_result = dtw(gt, pred)
                values[name] = dtw_result.cost if name == "dtw" else dtw_result.ldtw
            else:  # rmse
                if gt is None:
                    raise ValueError("RMSE needs a trajectory ground truth")
                if pred is None:
                    raise ValueError("RMSE needs a trajectory prediction")
                if isinstance(rmse_pred, ValueError):
                    raise rmse_pred
                values[name] = rmse(gt, pred if rmse_pred is None else rmse_pred)
        except ValueError as exc:
            values[name] = None
            errors[name] = exc
    return values, errors


@pytest.mark.parametrize("metrics", [
    ("aiou", "iou", "ldtw", "dtw", "rmse"),
    ("rmse", "dtw", "iou"),
    ("iou", "aiou"),
    ("ldtw", "rmse"),
])
def test_score_pairs_matches_the_pair_at_a_time_reference(corpus, metrics):
    a, b, c = corpus[:3]
    off = traj_from_strokes([[(10, 90), (20, 20)]])
    off_too = traj_from_strokes([[(70, 10), (20, 20)]])
    empty = Trajectory.from_arrays([(1.0, 1.0)], [EOS])
    mask_a, mask_b = rasterize(a), rasterize(b)
    same_length = Trajectory.from_arrays(a.xy + 0.5, a.state)
    no_rmse = ValueError("no point-to-point correspondence")
    pairs = [(a, b), (a, c), (a, off), (a, mask_b),  # one ground truth, consecutive
             (mask_a, b), (mask_a, mask_b), (mask_a, off),
             (b, a), (a, same_length),  # a again, apart from its first run
             (off_too, off), (off_too, a), (empty, a), (a, empty), (empty, empty),
             (b, c), (c, b), (b, a)]
    rmse_preds = [None] * len(pairs)
    rmse_preds[1], rmse_preds[7], rmse_preds[14] = same_length, no_rmse, c
    got = score_pairs(pairs, metrics, 3, rmse_preds)
    assert len(got) == len(pairs)
    for (gt, pred), rmse_pred, (values, errors) in zip(pairs, rmse_preds, got):
        want_values, want_errors = score_pair_reference(gt, pred, metrics, 3,
                                                        rmse_pred=rmse_pred)
        assert list(values) == list(metrics) and values == want_values
        assert [(name, type(exc), str(exc)) for name, exc in errors.items()] == \
            [(name, type(exc), str(exc)) for name, exc in want_errors.items()]
    assert score_pairs([], metrics) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_pairs_in_any_order_matches_score_pair(corpus, seed):
    """Ground truths shared by pairs that are not adjacent, masks, off-canvas
    and empty glyphs, and a 128-px ground truth: every pair of a shuffled
    call gets what `score_pair` gives it alone, message for message."""
    a, b, c = corpus[:3]
    off = traj_from_strokes([[(10, 90), (20, 20)]])
    empty = Trajectory.from_arrays([(1.0, 1.0)], [EOS])
    big = traj_from_strokes([[(10, 20), (100, 25)], [(5, 120), (60, 64)]], side=128)
    mask_a, wide = rasterize(a), rasterize(big)
    pairs = [(a, b), (a, c), (a, off), (a, a), (b, a), (b, c), (c, a), (mask_a, b),
             (mask_a, off), (wide, a), (wide, big), (big, a), (big, b), (off, a), (off, off),
             (empty, a), (a, empty), (empty, empty), (a, mask_a), (b, wide)]
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    # some ground truth comes back after a pair of another one
    apart = [i for i in range(1, len(shuffled)) if shuffled[i][0] is not shuffled[i - 1][0]]
    assert any(shuffled[i][0] is shuffled[j][0] for i in apart for j in range(i - 1))
    metrics = ("aiou", "iou", "ldtw", "dtw", "rmse")
    for pair, (values, errors) in zip(shuffled, score_pairs(shuffled, metrics, 3)):
        want_values, want_errors = score_pair(*pair, metrics, 3)
        assert values == want_values
        assert [(name, type(exc), str(exc)) for name, exc in errors.items()] == \
            [(name, type(exc), str(exc)) for name, exc in want_errors.items()]


def test_score_pairs_renders_each_trajectory_once_per_canvas_side(corpus, monkeypatch):
    """One `rasterize_many` call per canvas side, each trajectory object once
    in it: a prediction of a 128-px mask ground truth renders at 128, and at
    64 for its 64-px ground truths."""
    rendered = []
    rasterize_many = bench.rasterize_many
    monkeypatch.setattr(bench, "rasterize_many", lambda trajs, side=None:
                        rendered.append((side, list(trajs))) or rasterize_many(trajs, side))
    a, b, c = corpus[:3]
    wide = rasterize(traj_from_strokes([[(10, 20), (100, 25)]], side=128))
    pairs = [(a, b), (b, c), (wide, a), (a, c), (wide, b), (c, a), (a, b), (wide, wide)]
    got = score_pairs(pairs, ("iou", "aiou"))
    assert sorted(side for side, _ in rendered) == [64, 128]
    assert {side: [id(t) for t in trajs] for side, trajs in rendered} == \
        {64: [id(a), id(b), id(c)], 128: [id(a), id(b)]}
    assert got == [score_pair(gt, pred, ("iou", "aiou")) for gt, pred in pairs]
    rendered.clear()
    sensitivity_run(corpus[:4], "point-drift", grid=(1, 2), metrics=("aiou",))
    (side, trajs), = rendered
    assert side == 64 and len(trajs) == len({id(t) for t in trajs}) == 4 * 3


def test_a_render_error_is_the_error_of_both_glyph_metrics(monkeypatch):
    """The prediction's render error comes first, also when the ground truth
    is off the canvas too, and IoU and AIoU hold that one error object."""
    rendered = []
    rasterize_many = bench.rasterize_many

    def spy(trajs, side=None):
        masks = rasterize_many(trajs, side)
        rendered.extend(masks)
        return masks

    monkeypatch.setattr(bench, "rasterize_many", spy)
    gt = traj_from_strokes([[(1, 1), (5, 5)]])
    gt_off = traj_from_strokes([[(70, 10), (20, 20)]])
    off_canvas = traj_from_strokes([[(1, 1), (90, 1)]])
    for ground_truth in (gt, gt_off):
        rendered.clear()
        values, errors = score_pair(ground_truth, off_canvas, ("aiou", "iou"))
        assert values == {"aiou": None, "iou": None}
        assert isinstance(errors["aiou"], OutOfCanvasError)
        assert errors["aiou"] is errors["iou"] is rendered[1]
        assert "(90, 1)" in str(errors["aiou"])


def test_scoring_walks_no_alignment_path(corpus, monkeypatch):
    """The scores read each alignment's cost and T only: no sweep or
    `score_pairs` call builds an `AlignmentPath`."""
    def refuse(self):
        raise AssertionError("a scoring call built an alignment path")

    monkeypatch.setattr(AlignmentPath, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built an alignment path"):
        dtw(corpus[0], corpus[1]).path  # the patch bites where a path is asked for
    for kind in bench.SENSITIVITY_KINDS:
        for report in sensitivity_run(corpus[:4], kind, metrics=("ldtw", "dtw"), seed=2):
            assert all(n > 0 for n in report.samples_used)
    for report in invariance_run(corpus[:4], "sample-rate", seed=2):
        assert all(n == 4 for n in report.samples_used)
    (values, errors), = score_pairs([(corpus[0], corpus[1])], ("ldtw", "dtw"))
    assert not errors and values["ldtw"] == dtw(corpus[0], corpus[1]).ldtw


def test_score_pair_reports_the_prediction_error_first():
    gt = traj_from_strokes([[(70, 10), (20, 20)]])
    pred = traj_from_strokes([[(10, 90), (20, 20)]])
    values, errors = score_pair(gt, pred, ("aiou", "iou", "dtw"))
    assert values["aiou"] is None and values["iou"] is None and values["dtw"] > 0
    assert isinstance(errors["aiou"], OutOfCanvasError)
    assert "(10, 90)" in str(errors["aiou"])


def test_score_pair_records_an_overflowing_sequence_score_as_its_error():
    gt = traj_from_strokes([[(1, 1), (3, 3)]])
    pred = traj_from_strokes([[(-1e200, 0), (1e200, 5)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = score_pair(gt, pred, ("dtw", "ldtw", "rmse"), rmse_pred=gt)
        assert values["rmse"] == 0.0 and list(errors) == ["dtw", "ldtw"]
        values, errors = score_pair(gt, pred, ("dtw", "ldtw", "rmse"))
    assert values == {"dtw": None, "ldtw": None, "rmse": None}
    assert {name: str(exc) for name, exc in errors.items()} == {
        name: f"{name} overflows float64: the points lie too far apart"
        for name in ("dtw", "ldtw", "rmse")}


def test_a_sweep_skips_a_sample_whose_score_overflows():
    """The ground truth spans past the float range; the drifted prediction is
    clamped to the canvas, so every distance between them overflows."""
    glyph = Trajectory.from_arrays([[-1e200, 0], [1e200, 5]], [DOWN, UP])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = sensitivity_run([glyph], "point-drift", grid=(1.0,), metrics=("ldtw",))
    assert (reports[0].samples_used, reports[0].samples_skipped) == ((0,), (1,))
    assert json.loads(reports_to_json(reports))["rows"][0]["raw_mean"] is None


# --- synthetic corpus --------------------------------------------------------

def test_synthetic_corpus_is_deterministic():
    a = make_synthetic_corpus(5, seed=3)
    b = make_synthetic_corpus(5, seed=3)
    for ta, tb in zip(a, b):
        assert [(p.x, p.y, p.state) for p in ta.points] == \
               [(p.x, p.y, p.state) for p in tb.points]


def test_synthetic_corpus_respects_requested_shape():
    corpus = make_synthetic_corpus(6, seed=1, stroke_range=(3, 4),
                                   points_range=(10, 12))
    for traj in corpus:
        strokes = strokes_of(traj)
        assert 3 <= len(strokes) <= 4
        assert all(10 <= len(s) <= 12 for s in strokes)
        rasterize(traj)  # normalized glyphs always fit the canvas


def test_synthetic_corpus_prefix_stability():
    """Growing the corpus never changes earlier samples (spawn-key seeding)."""
    small = make_synthetic_corpus(3, seed=9)
    large = make_synthetic_corpus(6, seed=9)
    for ta, tb in zip(small, large):
        assert [(p.x, p.y) for p in ta.points] == [(p.x, p.y) for p in tb.points]


def test_synthetic_corpus_rejects_empty():
    with pytest.raises(ValueError):
        make_synthetic_corpus(0)
    with pytest.raises(ValueError, match="side"):
        make_synthetic_corpus(1, side=8)
    with pytest.raises(ValueError, match="seed"):
        make_synthetic_corpus(1, seed=-1)
    for n in (2.5, np.float64(2.5), math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="corpus size must be a whole number of at least 1, got"):
            make_synthetic_corpus(n)
    with pytest.raises(TypeError):
        make_synthetic_corpus("3")
    whole = make_synthetic_corpus(3)
    for n in (3.0, np.float64(3.0)):
        corpus = make_synthetic_corpus(n)
        assert len(corpus) == 3
        assert all(np.array_equal(a.xy, b.xy) and np.array_equal(a.state, b.state)
                   for a, b in zip(corpus, whole))


def synthetic_corpus_reference(n, seed=0, side=64, stroke_range=(6, 8), points_range=(5, 9),
                               step_range=(5.0, 11.0), wiggle=0.9):
    """The generator drawing one value per `rng.uniform` call, point by point."""
    corpus = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        xy, state = [], []
        for _ in range(int(rng.integers(stroke_range[0], stroke_range[1] + 1))):
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


@pytest.mark.parametrize("shape", [
    {},
    {"stroke_range": (7, 7), "points_range": (7, 7)},
    {"stroke_range": (7, 7), "points_range": (34, 34), "step_range": (1.2, 2.5)},
    {"points_range": (1, 1)},
    {"points_range": (1, 4), "side": 9, "wiggle": 3.0},
])
@pytest.mark.parametrize("seed", [0, 1, 13, 2 ** 40 + 7])
def test_synthetic_corpus_matches_the_per_point_reference(shape, seed):
    got = make_synthetic_corpus(6, seed=seed, **shape)
    want = synthetic_corpus_reference(6, seed=seed, **shape)
    assert [(t.xy.tobytes(), t.state.tobytes(), t.canvas_side) for t in got] == \
        [(t.xy.tobytes(), t.state.tobytes(), t.canvas_side) for t in want]


# --- sensitivity -------------------------------------------------------------

def test_sensitivity_reports_cover_grid_and_metrics(corpus):
    reports = sensitivity_run(corpus, "point-drift", seed=1)
    assert {r.metric for r in reports} == {"aiou", "ldtw"}
    for rep in reports:
        assert rep.grid == DEFAULT_GRIDS["point-drift"]
        assert len(rep.raw_mean) == len(rep.grid)
        assert rep.samples_used == (len(corpus),) * len(rep.grid)
        assert min(rep.normalized) == 0.0 and max(rep.normalized) == 1.0


def test_sensitivity_skips_impossible_magnitudes():
    # 2-stroke glyphs cannot lose 3 strokes: those samples are skipped
    corpus = make_synthetic_corpus(4, seed=8, stroke_range=(2, 2))
    reports = sensitivity_run(corpus, "stroke-delete", grid=(1, 3), seed=0)
    for rep in reports:
        assert rep.samples_used == (4, 0)
        assert rep.samples_skipped == (0, 4)
        assert rep.normalized[0] == 0.0
        assert math.isnan(rep.normalized[1])  # undefined point stays undefined


def test_sensitivity_validates_inputs(corpus):
    with pytest.raises(ValueError):
        sensitivity_run(corpus, "melt")
    with pytest.raises(ValueError):
        sensitivity_run([], "point-drift")
    with pytest.raises(ValueError):
        sensitivity_run(corpus, "point-drift", grid=(3, 1))


@pytest.mark.parametrize("kind, grid, message", [
    ("point-drift", (-1, 2), "point-drift distance must be positive, got -1"),
    ("stroke-drift", (0.0, 1.0), "stroke-drift distance must be positive, got 0.0"),
    ("stroke-insert", (0.5, 1),
     "stroke-insert count must be a whole number of at least 1, got 0.5"),
    ("stroke-delete", (0, 1), "stroke-delete count must be a whole number of at least 1, got 0"),
    ("stroke-insert", (1, 1.5, 2),
     "stroke-insert count must be a whole number of at least 1, got 1.5"),
    ("stroke-delete", (1.0, 2.5),
     "stroke-delete count must be a whole number of at least 1, got 2.5"),
    ("stroke-drift", (1, -10**400), f"magnitude grid must be finite, got {-10**400}"),
])
def test_sensitivity_rejects_magnitudes_no_glyph_can_take(corpus, kind, grid, message):
    with pytest.raises(ValueError) as exc:
        sensitivity_run(corpus, kind, grid=grid)
    assert str(exc.value) == message


# --- invariance --------------------------------------------------------------

def test_invariance_width_mode_defaults_to_glyph_metrics(corpus):
    reports = invariance_run(corpus, "stroke-width", seed=3)
    assert {r.metric for r in reports} == {"aiou", "iou"}
    by = {r.metric: r for r in reports}
    # the clean prediction dilated k times still contains the width-1 glyph
    assert by["aiou"].raw_mean[0] == pytest.approx(1.0)


def test_invariance_sample_rate_mode_defaults_to_sequence_metrics(corpus):
    reports = invariance_run(corpus, "sample-rate", seed=3)
    assert {r.metric for r in reports} == {"dtw", "ldtw"}
    by = {r.metric: r for r in reports}
    assert all(v > 0 for v in by["dtw"].raw_mean)  # base drift keeps it nonzero


def test_invariance_sample_rate_takes_a_numpy_grid(corpus):
    """Factors given as numpy scalars sweep exactly as the same Python floats."""
    want = invariance_run(corpus[:3], "sample-rate", grid=[0.5, 1.0, 2.0], seed=3)
    assert invariance_run(corpus[:3], "sample-rate", grid=np.array([0.5, 1.0, 2.0]),
                          seed=3) == want


def test_invariance_skips_a_width_that_fills_the_canvas(corpus):
    # a 63-step dilation of any pixel covers the 64-px canvas: no background left
    by_width = {r.metric: r for r in invariance_run(corpus, "stroke-width", grid=(0, 63))}
    alone = {r.metric: r for r in invariance_run(corpus, "stroke-width", grid=(0,))}
    for name, rep in by_width.items():
        assert rep.raw_mean[0] == alone[name].raw_mean[0]
        assert rep.samples_used == (len(corpus), 0)
        assert rep.samples_skipped == (0, len(corpus))
        assert math.isnan(rep.raw_mean[1])
    skip = bench._rows(corpus[:1], "stroke-width", (0, 63), 0)[0][1]
    assert isinstance(skip, ValueError) and str(skip) == "stroke width 63 fills the canvas"


def test_invariance_skips_a_glyph_outside_the_canvas_at_every_width(corpus):
    outside = traj_from_strokes([[(10, 10), (70, 20), (30, 30)]])
    with_it = invariance_run(corpus[:3] + [outside], "stroke-width", grid=(0, 1))
    without = invariance_run(corpus[:3], "stroke-width", grid=(0, 1))
    for rep, want in zip(with_it, without):
        assert rep.raw_mean == want.raw_mean
        assert rep.samples_used == (3, 3)
        assert rep.samples_skipped == (1, 1)
    with pytest.raises(OutOfCanvasError) as exc:
        rasterize(outside)
    row = bench._rows([outside], "stroke-width", (0, 1), 0)[0]
    assert [(type(skip), str(skip)) for skip in row] == [(OutOfCanvasError, str(exc.value))] * 2


def aggregate_rows(grid, metrics, per_sample, seed):
    """`bench._aggregate` of per_sample[i][mi], sample i's metric->value dict at
    magnitude mi (None where it is skipped), turned into the sweeps' value columns."""
    kept = {name: [array("d", [row[mi][name] for row in per_sample if row[mi][name] is not None])
                   for mi in range(len(grid))] for name in metrics}
    return bench._aggregate(grid, kept, len(per_sample), seed)


def invariance_width_reference(corpus, grid, metrics, seed, k_max):
    """The stroke-width runner as a four-step reference: per width, render and
    dilate the glyph with widen_strokes, Otsu-binarize that image, and score
    the clean glyph against it; a degenerate histogram is a skipped sample."""
    per_sample = []
    for traj in corpus:
        pred_mask = rasterize(traj)
        rows = []
        for k in grid:
            try:
                gt_mask = binarize(widen_strokes(traj, k))
            except DegenerateHistogramError:
                rows.append(dict.fromkeys(metrics))
                continue
            rows.append(score_pair(gt_mask, pred_mask, metrics, k_max)[0])
        per_sample.append(rows)
    return aggregate_rows(grid, metrics, per_sample, seed)


def test_invariance_width_mode_matches_the_binarized_reference():
    rng = np.random.Generator(np.random.PCG64(10))
    for case in range(40):
        side = int(rng.integers(9, 65))
        corpus = make_synthetic_corpus(int(rng.integers(1, 4)), seed=case, side=side)
        if case % 4 == 0:  # a glyph with no drawn points renders an empty mask
            corpus.append(Trajectory.from_arrays([(1.0, 1.0)], [EOS], side))
        widths = rng.integers(0, side + 6, size=int(rng.integers(1, 6)))
        grid = sorted([0, *widths.tolist(), *widths[:1].tolist()])  # 0 and a repeat
        if case % 2:
            grid = [float(k) for k in grid]
        metrics = ("aiou", "iou", "ldtw")[:int(rng.integers(1, 4))]
        k_max = int(rng.choice([0, 3, 10]))
        got = invariance_run(corpus, "stroke-width", grid=grid, metrics=metrics,
                             seed=case, k_max=k_max)
        want = invariance_width_reference(corpus, tuple(grid), metrics, case, k_max)
        assert reports_to_csv(got) == reports_to_csv(want)
        assert reports_to_json(got) == reports_to_json(want)


def sensitivity_reference(corpus, kind, grid, metrics, seed, k_max):
    """The sensitivity runner scoring one pair at a time, each with its own
    `dtw` call."""
    per_sample = []
    for i, traj in enumerate(corpus):
        sseed = derive_seed(seed, i)
        rows = []
        for magnitude in grid:
            try:
                pred = perturb(traj, kind, magnitude, sseed)
            except ValueError:
                rows.append(dict.fromkeys(metrics))
                continue
            rows.append(score_pair(traj, pred, metrics, k_max)[0])
        per_sample.append(rows)
    return aggregate_rows(grid, metrics, per_sample, seed)


def sample_rate_reference(corpus, grid, metrics, seed, k_max):
    """The sample-rate runner scoring one pair at a time."""
    per_sample = []
    for i, traj in enumerate(corpus):
        pred = drift_points(traj, bench.DEFAULT_BASE_DRIFT, derive_seed(seed, i))
        per_sample.append([score_pair(traj, change_sample_rate(pred, factor),
                                      metrics, k_max)[0] for factor in grid])
    return aggregate_rows(grid, metrics, per_sample, seed)


@pytest.mark.parametrize("kind, grid, metrics", [
    ("stroke-insert", (1, 3, 4), ("aiou", "ldtw", "dtw")),
    ("stroke-delete", (1, 5, 7, 9), ("ldtw", "iou", "rmse")),
    ("point-drift", (0.5, 2.5, 7.25), ("aiou", "iou", "ldtw", "dtw", "rmse")),
    ("stroke-drift", DEFAULT_GRIDS["stroke-drift"], ("dtw",)),
    ("sample-rate", (0.3, 1.0, 2.5), ("ldtw", "dtw", "rmse")),
    ("point-drift", (1, 2), ("aiou",)),
])
def test_runners_match_the_pair_at_a_time_reference(kind, grid, metrics, monkeypatch):
    """The runners' one `dtw_many` batch per sweep gives the bytes that scoring
    each pair on its own gave, and no batch runs without a DTW metric."""
    corpus = make_synthetic_corpus(14, seed=9)
    corpus.insert(5, Trajectory.from_arrays([(1.0, 1.0)], [EOS]))  # nothing to align
    assert len({len(t.drawn_xy()) for t in corpus}) > 5
    batches = []
    dtw_many = bench.dtw_many
    monkeypatch.setattr(bench, "dtw_many",
                        lambda pairs: batches.append(len(pairs)) or dtw_many(pairs))
    if kind == "sample-rate":
        got = invariance_run(corpus, kind, grid=grid, metrics=metrics, seed=4, k_max=3)
        n_batches = len(batches)
        want = sample_rate_reference(corpus, grid, metrics, 4, 3)
    else:
        got = sensitivity_run(corpus, kind, grid=grid, metrics=metrics, seed=4, k_max=3)
        n_batches = len(batches)
        want = sensitivity_reference(corpus, kind, grid, metrics, 4, 3)
    assert n_batches == (1 if {"dtw", "ldtw"} & set(metrics) else 0)
    assert reports_to_csv(got) == reports_to_csv(want)
    assert reports_to_json(got) == reports_to_json(want)
    if kind == "stroke-delete":  # 7 strokes skip some glyphs, 9 skip all
        skipped = got[0].samples_skipped
        assert skipped[0] < skipped[2] < skipped[3] == len(corpus)


@pytest.mark.parametrize("kind", DEFAULT_GRIDS)
def test_each_sweep_scores_in_one_score_pairs_call(corpus, monkeypatch, kind):
    """Every window of a runner call passes all its pairs to one `score_pairs`
    call, even with a glyph outside the canvas and a width that fills it, and a
    corpus smaller than `bench._WINDOW` is one window.  The sample-rate sweep
    also resamples every window's rows in one `resample_many` call."""
    calls = []
    for name in ("score_pairs", "score_pair", "resample_many"):
        fn = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *args, _name=name, _fn=fn, **kwargs:
                            calls.append(_name) or _fn(*args, **kwargs))
    glyphs = corpus[:3] + [traj_from_strokes([[(10, 10), (70, 20), (30, 30)]])]
    metrics = ("aiou", "iou", "ldtw", "dtw", "rmse")
    if kind == "stroke-width":
        invariance_run(glyphs, kind, grid=(0, 2, 63), metrics=metrics)
    elif kind == "sample-rate":
        invariance_run(glyphs, kind, metrics=metrics)
    else:
        sensitivity_run(glyphs, kind, metrics=metrics)
    assert [name for name in calls if name.startswith("score_")] == ["score_pairs"]
    assert calls.count("resample_many") == (kind == "sample-rate")


@pytest.mark.parametrize("kind", DEFAULT_GRIDS)
def test_windows_of_two_glyphs_write_the_bytes_of_one_window(monkeypatch, kind):
    """Five glyphs in windows of two make three `score_pairs` calls (and, for
    the sample-rate sweep, three `resample_many` calls) and the same CSV as
    one call: each glyph keeps its corpus index's seed.  The glyph outside the
    canvas and a one-stroke glyph give skips inside the second window."""
    glyphs = (make_synthetic_corpus(3, seed=3) + [traj_from_strokes([[(10, 10), (70, 20)]])]
              + make_synthetic_corpus(1, seed=4))
    glyphs[2:2] = [glyphs.pop(3)]

    def curves():
        if kind in bench.SENSITIVITY_KINDS:
            return reports_to_csv(sensitivity_run(glyphs, kind, seed=9))
        return reports_to_csv(invariance_run(glyphs, kind, seed=9))

    whole, calls = curves(), []
    for name in ("score_pairs", "resample_many"):
        fn = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *args, _name=name, _fn=fn, **kwargs:
                            calls.append(_name) or _fn(*args, **kwargs))
    monkeypatch.setattr(bench, "_WINDOW", 2)
    assert curves() == whole
    assert calls.count("score_pairs") == 3
    assert calls.count("resample_many") == (3 if kind == "sample-rate" else 0)


def sweep_memory(monkeypatch, kind, n):
    """(tracemalloc peak, memory held as `_aggregate` starts) of a default
    sweep of n seeded glyphs in windows of 16, its corpus built untraced."""
    monkeypatch.setattr(bench, "_WINDOW", 16)
    held = []
    aggregate = bench._aggregate
    monkeypatch.setattr(bench, "_aggregate", lambda *args: held.append(
        tracemalloc.get_traced_memory()[0]) or aggregate(*args))
    corpus = make_synthetic_corpus(n, seed=0)
    run = sensitivity_run if kind in bench.SENSITIVITY_KINDS else invariance_run
    tracemalloc.start()
    try:
        run(corpus, kind, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, held.pop()


@pytest.mark.parametrize("kind", ["point-drift", "sample-rate"])
def test_a_sweeps_working_memory_does_not_grow_with_the_corpus(monkeypatch, kind):
    """In windows of 16 glyphs, a sweep's tracemalloc peak less the per-sample
    values it holds at the end (read as it aggregates) grows by under a
    quarter MiB from 32 to 128 glyphs.  Scored in one call, the point-drift
    sweep held about 51 KiB more per glyph: 4.8 MiB more here."""
    def working(n):
        peak, held = sweep_memory(monkeypatch, kind, n)
        return peak - held

    working(16)  # first calls fill caches
    small, large = working(32), working(128)
    assert large - small < 2 ** 18


@pytest.mark.parametrize("kind", ["point-drift", "sample-rate", "stroke-width"])
def test_a_sweep_holds_only_value_columns_until_it_aggregates(monkeypatch, kind):
    """In windows of 16 glyphs, what a sweep holds as `_aggregate` starts grows
    by under 48 KiB from 32 to 128 glyphs: 8 bytes per defined (glyph, metric,
    magnitude) value, 12-20 KiB here.  A metric->value dict per (glyph,
    magnitude), None-filled where a sample was skipped, grew it by 103-200 KiB."""
    sweep_memory(monkeypatch, kind, 16)  # first calls fill caches
    small, large = sweep_memory(monkeypatch, kind, 32)[1], sweep_memory(monkeypatch, kind, 128)[1]
    assert large - small < 48 * 1024


def test_invariance_rejects_unknown_transform(corpus):
    with pytest.raises(ValueError):
        invariance_run(corpus, "rotation")


# --- input rules: checked before any work ------------------------------------

# name -> call of a runner (or of score_pair or score_pairs) on a corpus, with small grids
RUNS = {
    "sensitivity": lambda corpus, **kw: sensitivity_run(corpus, "point-drift", (1, 2), **kw),
    "stroke-width": lambda corpus, **kw: invariance_run(corpus, "stroke-width", (0, 1), **kw),
    "sample-rate": lambda corpus, **kw: invariance_run(corpus, "sample-rate", (1.0, 2.0), **kw),
    "score_pair": lambda corpus, metrics=("aiou", "ldtw"), **kw:
        score_pair(corpus[0], corpus[1], metrics, **kw),
    "score_pairs": lambda corpus, metrics=("aiou", "ldtw"), **kw:
        score_pairs([(corpus[0], corpus[1]), (corpus[0], corpus[0])], metrics, **kw),
}


def _log_work(monkeypatch) -> list:
    """Wrap every bench call that perturbs, renders or aligns; return the log."""
    calls = []
    for name in ("perturb_row", "drift_points", "resample_many", "rasterize", "rasterize_many",
                 "dtw_many"):
        fn = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *args, _name=name, _fn=fn, **kwargs:
                            calls.append(_name) or _fn(*args, **kwargs))
    return calls


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_work_log_records_a_valid_run(corpus, monkeypatch, run):
    calls = _log_work(monkeypatch)
    RUNS[run](corpus[:2], metrics=("aiou", "ldtw"), k_max=0)
    assert calls


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("metrics, message", [
    (("bogus", "aiou"), "unknown metric 'bogus'; choose from aiou,iou,ldtw,dtw,rmse"),
    (("aiou", "aiou", "bogus"), "unknown metric 'bogus'; choose from aiou,iou,ldtw,dtw,rmse"),
    ((), "empty metric selection"),
    (("aiou", "ldtw", "aiou"), "metric 'aiou' given twice"),
], ids=["unknown", "unknown-before-repeated", "empty", "repeated"])
def test_bad_metric_lists_are_rejected_before_any_work(corpus, monkeypatch, run,
                                                       metrics, message):
    calls = _log_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        RUNS[run](corpus, metrics=metrics)
    assert str(exc.value) == message
    assert calls == []


@pytest.mark.parametrize("run", sorted(RUNS))
def test_runners_reject_a_negative_k_max_before_any_work(corpus, monkeypatch, run):
    calls = _log_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        RUNS[run](corpus, k_max=-1)
    assert str(exc.value) == "k_max must be a whole number of at least 0, got -1"
    assert calls == []


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("k_max", [2.5, math.nan, math.inf])
def test_runners_reject_a_k_max_that_is_not_whole_before_any_work(corpus, monkeypatch, run,
                                                                  k_max):
    calls = _log_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        RUNS[run](corpus, k_max=k_max)
    assert str(exc.value) == f"k_max must be a whole number of at least 0, got {k_max}"
    assert calls == []


@pytest.mark.parametrize("n", [0, 1, 3])
def test_score_pairs_rejects_rmse_preds_of_another_length_before_any_work(corpus, monkeypatch,
                                                                          n):
    calls = _log_work(monkeypatch)
    pairs = [(corpus[0], corpus[1]), (corpus[0], corpus[0])]
    with pytest.raises(ValueError) as exc:
        score_pairs(pairs, ("aiou", "ldtw", "rmse"), rmse_preds=[None] * n)
    assert str(exc.value) == f"rmse_preds has {n} entries for 2 pairs"
    assert calls == []


@pytest.mark.parametrize("run, kind", [(sensitivity_run, "point-drift"),
                                       (invariance_run, "stroke-width"),
                                       (invariance_run, "sample-rate")])
def test_runners_reject_an_empty_grid_before_any_work(corpus, monkeypatch, run, kind):
    calls = _log_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        run(corpus, kind, grid=())
    assert str(exc.value) == "magnitude grid must be non-empty"
    assert calls == []


# --- report serialization ----------------------------------------------------

def test_csv_shape_and_header(corpus):
    reports = sensitivity_run(corpus, "stroke-drift", grid=(1, 2), seed=0)
    text = reports_to_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["metric", "magnitude", "raw_mean", "normalized",
                       "samples_used", "samples_skipped"]
    assert len(rows) == 1 + 2 * 2
    assert all(len(r) == 6 for r in rows[1:])
    assert rows[1][0] == "aiou" and rows[3][0] == "ldtw"  # sorted by metric


def test_json_mirrors_csv(corpus):
    reports = sensitivity_run(corpus, "stroke-drift", grid=(1, 2), seed=0)
    payload = json.loads(reports_to_json(reports))
    csv_rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))[1:]
    assert len(payload["rows"]) == len(csv_rows)
    for jrow, crow in zip(payload["rows"], csv_rows):
        assert jrow["metric"] == crow[0]
        assert jrow["raw_mean"] == pytest.approx(float(crow[2]), abs=1e-6)


def test_reports_are_byte_stable(corpus):
    a = sensitivity_run(corpus, "point-drift", grid=(2, 4), seed=6)
    b = sensitivity_run(corpus, "point-drift", grid=(2, 4), seed=6)
    assert reports_to_csv(a) == reports_to_csv(b)
    assert reports_to_json(a) == reports_to_json(b)


def test_report_dataclass_round_trip():
    rep = CurveReport(metric="ldtw", grid=(1.0,), raw_mean=(0.5,),
                      normalized=(0.0,), samples_used=(3,), samples_skipped=(0,),
                      seed=1)
    text = reports_to_csv([rep])
    assert "ldtw,1.000000,0.500000,0.000000,3,0" in text
    header = "metric,magnitude,raw_mean,normalized,samples_used,samples_skipped\n"
    assert reports_to_csv([]) == header
    assert reports_to_json([]) == '{\n  "rows": []\n}\n'
    # an undefined mean: the CSV cell as `_fmt` writes NaN, JSON null (JSON has no NaN)
    undefined = CurveReport(metric="aiou", grid=(1, 2.5), raw_mean=(math.nan, 0.25),
                            normalized=(math.nan, 0.0), samples_used=(0, 2),
                            samples_skipped=(2, 0), seed=1)
    assert reports_to_csv([undefined]) == (
        header + "aiou,1.000000,nan,nan,0,2\naiou,2.500000,0.250000,0.000000,2,0\n")
    assert reports_to_json([undefined]) == """{
  "rows": [
    {
      "magnitude": 1.0,
      "metric": "aiou",
      "normalized": null,
      "raw_mean": null,
      "samples_skipped": 2,
      "samples_used": 0
    },
    {
      "magnitude": 2.5,
      "metric": "aiou",
      "normalized": 0.0,
      "raw_mean": 0.25,
      "samples_skipped": 0,
      "samples_used": 2
    }
  ]
}
"""

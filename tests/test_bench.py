"""Benchmark-runner tests: aggregation, determinism, and report formats."""

import csv
import io
import json
import math

import numpy as np
import pytest

from trajeval import (CurveReport, OutOfCanvasError, aiou, dtw, invariance_run,
                      make_synthetic_corpus, normalize_curve, rasterize,
                      reports_to_csv, reports_to_json, score_pair,
                      sensitivity_run, strokes_of)
from trajeval import bench
from trajeval.bench import DEFAULT_GRIDS, derive_seed

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
    values, errors = score_pair(corpus[0], corpus[1], ("ldtw", "dtw"))
    assert not errors and values["dtw"] > 0


def test_score_pair_mask_ground_truth_skips_sequence_metrics(corpus):
    values, errors = score_pair(rasterize(corpus[0]), corpus[0], ("iou", "ldtw", "rmse"))
    assert values == {"iou": 1.0, "ldtw": None, "rmse": None}
    assert str(errors["ldtw"]) == "sequence metrics need a trajectory ground truth"
    assert str(errors["rmse"]) == "RMSE needs a trajectory ground truth"


def test_score_pair_reports_the_prediction_error_first():
    gt = traj_from_strokes([[(70, 10), (20, 20)]])
    pred = traj_from_strokes([[(10, 90), (20, 20)]])
    values, errors = score_pair(gt, pred, ("aiou", "iou", "dtw"))
    assert values["aiou"] is None and values["iou"] is None and values["dtw"] > 0
    assert isinstance(errors["aiou"], OutOfCanvasError)
    assert "(10, 90)" in str(errors["aiou"])


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
    ("stroke-insert", (0.5, 1), "stroke-insert count must be finite and at least 1, got 0.5"),
    ("stroke-delete", (0, 1), "stroke-delete count must be finite and at least 1, got 0"),
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


def test_invariance_base_drift_override(corpus):
    clean = invariance_run(corpus, "sample-rate", seed=3, base_drift=0.0)
    by = {r.metric: r for r in clean}
    # identical trajectories at factor 1: zero alignment cost
    f1 = by["dtw"].grid.index(1.0)
    assert by["dtw"].raw_mean[f1] == pytest.approx(0.0)


def test_invariance_rejects_unknown_transform(corpus):
    with pytest.raises(ValueError):
        invariance_run(corpus, "rotation")


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

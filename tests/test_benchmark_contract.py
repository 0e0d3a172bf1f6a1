"""The package surface that the benchmark under benchmarks/ relies on.

The benchmark wraps the functions named in `layer_trace.TABLE` and builds
its inputs with the point API (`Trajectory(points)`, `.points`,
`.drawn_points()`, `strokes_of`).  A rename or a broken view fails here in
about a second instead of at the benchmark's own run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import trajeval
from trajeval import (PenState, TrajPoint, Trajectory, binarize, dilate3x3,
                      make_synthetic_corpus, rasterize, read_pgm, strokes_of,
                      widen_strokes, write_pgm)

from conftest import traj_from_strokes

LAYER_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layer_trace.py"


@pytest.fixture(scope="module")
def layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(layer_trace):
    assert layer_trace.PACKAGE == "trajeval"
    for layer, functions in layer_trace.TABLE.items():
        module = importlib.import_module(f"trajeval.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_layer_trace_counts_a_small_sweep(layer_trace, monkeypatch):
    batches, rows = [], []
    dtw_many = trajeval.bench.dtw_many
    monkeypatch.setattr(trajeval.bench, "dtw_many",
                        lambda pairs: batches.append(len(pairs)) or dtw_many(pairs))
    perturb_row = trajeval.bench.perturb_row
    monkeypatch.setattr(trajeval.bench, "perturb_row",
                        lambda traj, kind, grid, seed:
                        rows.append(tuple(grid)) or perturb_row(traj, kind, grid, seed))
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        corpus = trajeval.bench.make_synthetic_corpus(2, seed=1)
        trajeval.bench.sensitivity_run(corpus, "point-drift", grid=(1, 2),
                                       metrics=("aiou", "dtw"))
    finally:
        tracer.uninstall()
    out = layer_trace.summarize(tracer.take(), wall_s=1.0)
    assert out["traj_core.normalize_to_canvas.calls"] == 2
    # each glyph's two drifts come from one untraced perturb_row call
    assert out["error_sim.drift_points.calls"] == 0
    assert rows == [(1, 2), (1, 2)]
    # every ground truth and prediction of the sweep renders in one untraced
    # rasterize_many call (one per canvas side)
    assert out["raster.rasterize.calls"] == 0
    assert out["raster.rasterize.repeat_share"] == 0.0
    # the sweep's four alignments run in one untraced dtw_many batch
    assert out["seq_metrics.dtw.calls"] == 0
    assert out["seq_metrics.dtw.cells"] == 0
    assert batches == [4]


def test_layer_trace_counts_one_loss_step(layer_trace):
    """One sdtw and one sdtw_grad call each record exactly one span, so the
    gradient must not route through the public (traced) sdtw."""
    rng = np.random.Generator(np.random.PCG64(7))
    m, n = 5, 8
    gt = traj_from_strokes([rng.uniform(0.0, 63.0, size=(m, 2)).tolist()])
    pred = traj_from_strokes([rng.uniform(0.0, 63.0, size=(n, 2)).tolist()])
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        trajeval.losses.sdtw(gt, pred)
        trajeval.losses.sdtw_grad(gt, pred)
    finally:
        tracer.uninstall()
    out = layer_trace.summarize(tracer.take(), wall_s=1.0)
    assert out["losses.sdtw.calls"] == 1
    assert out["losses.sdtw_grad.calls"] == 1
    assert out["losses.sdtw.cells"] == m * n
    assert out["losses.sdtw_grad.cells"] == 2 * m * n


def test_point_api_the_benchmark_builds_with():
    gt = trajeval.bench.make_synthetic_corpus(1, seed=0)[0]
    assert [p.state.value for p in gt.points] == gt.state.tolist()
    assert gt.points[-1].state is PenState.EOS
    assert len(gt.drawn_points()) == len(gt) - 1
    strokes = strokes_of(gt)
    assert len(strokes) == gt.state.tolist().count(PenState.UP.value)
    assert sum(len(s) for s in strokes) == len(gt.drawn_points())

    # a finite-difference probe: one coordinate moved, rebuilt from points
    points = list(gt.points)
    p = points[3]
    points[3] = TrajPoint(p.x + 1e-4, p.y, p.state)
    shifted = Trajectory(tuple(points), canvas_side=gt.canvas_side)
    assert shifted.xy[3, 0] == p.x + 1e-4 and shifted.xy[3, 1] == p.y
    assert shifted.state.tolist() == gt.state.tolist()


def test_evaluate_long_ground_truth_images_read_back_as_their_masks(tmp_path):
    """evaluate-long writes some ground truths as `widen_strokes(gt, k)` PGMs,
    k in 1..3, and `evaluate` reads them with `binarize(read_pgm(...))`."""
    # the glyph shape of LONG_GLYPH in benchmarks/run.py
    corpus = make_synthetic_corpus(3, seed=0, stroke_range=(7, 7), points_range=(34, 34),
                                   step_range=(1.2, 2.5))
    for k, gt in enumerate(corpus, start=1):
        mask = dilate3x3(rasterize(gt), k)
        image = widen_strokes(gt, k)
        assert np.array_equal(image.pixels, np.where(mask.bits, 0, 255))
        write_pgm(image, tmp_path / "gt.pgm")
        assert binarize(read_pgm(tmp_path / "gt.pgm")).same_bits(mask)

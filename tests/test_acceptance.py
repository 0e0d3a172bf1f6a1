"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion so the suite's
terminal output doubles as a checklist.  Oracles are computed independently
of the library (path enumeration, exhaustive threshold scans, central finite
differences) and compared at fixed tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from trajeval import (LossWeights, aiou, dilate3x3, dtw, iou,
                      make_synthetic_corpus, otsu_threshold, rasterize, sdtw,
                      sdtw_grad)
from trajeval.bench import invariance_run, sensitivity_run
from trajeval.cli import main as cli_main
from trajeval.error_sim import drift_points
from trajeval.raster import GrayImage
from trajeval.seq_metrics import _coords

from conftest import random_traj
from test_losses import hard_sq_dtw, shift_point
from test_raster import otsu_oracle
from test_seq_metrics import dtw_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_dtw_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(101))
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(1, 3))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(1, 3))
        qc, pc = _coords(q).tolist(), _coords(p).tolist()
        if len(qc) > 6 or len(pc) > 6:
            continue
        worst = max(worst, abs(dtw(q, p).cost - dtw_oracle(qc, pc)))
    elapsed = time.monotonic() - start
    report(1, "DTW equals exhaustive path enumeration",
           worst <= 1e-9 and elapsed < 10.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_aiou_sweep_correctness():
    rng = np.random.Generator(np.random.PCG64(202))
    start = time.monotonic()
    exact = True
    for _ in range(200):
        gt = random_traj(rng, n_strokes=(1, 3), n_points=(2, 6))
        g = dilate3x3(rasterize(gt), int(rng.integers(0, 3)))
        p = rasterize(drift_points(gt, 2.0, int(rng.integers(1 << 30))))
        got = aiou(g, p, k_max=10).score
        want = max(iou(g, dilate3x3(p, k)) for k in range(11))
        exact &= (got == want)
    elapsed = time.monotonic() - start
    report(2, "AIoU equals brute-force dilation sweep",
           exact and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_otsu_equivalence():
    rng = np.random.Generator(np.random.PCG64(303))
    exact = True
    done = 0
    while done < 100:
        px = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        if len(np.unique(px)) < 2:
            continue
        exact &= (otsu_threshold(GrayImage(px)) == otsu_oracle(px))
        done += 1
    report(3, "Otsu equals exhaustive variance scan", exact)


def test_criterion_4_sdtw_gradient_and_limit():
    rng = np.random.Generator(np.random.PCG64(404))
    h = 1e-4
    worst_rel = 0.0
    for _ in range(50):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        grad = sdtw_grad(q, p, gamma=1.0)
        pc = _coords(p)
        fd = np.zeros_like(grad)
        for j in range(len(pc)):
            for axis, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
                hi = sdtw(q, shift_point(p, j, dx, dy), gamma=1.0)
                lo = sdtw(q, shift_point(p, j, -dx, -dy), gamma=1.0)
                fd[j, axis] = (hi - lo) / (2 * h)
        scale = max(np.abs(fd).max(), 1.0)
        worst_rel = max(worst_rel, float(np.abs(grad - fd).max() / scale))
    worst_limit = 0.0
    for _ in range(20):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        hard = hard_sq_dtw(_coords(q).tolist(), _coords(p).tolist())
        worst_limit = max(worst_limit, abs(sdtw(q, p, gamma=1e-6) - hard))
    report(4, "SDTW gradient vs finite differences and hard-DTW limit",
           worst_rel <= 1e-3 and worst_limit <= 1e-6,
           f"max rel grad err {worst_rel:.2e}, max limit err {worst_limit:.2e}")


@pytest.fixture(scope="module")
def corpus200():
    return make_synthetic_corpus(200, seed=0)


def test_criterion_5_sensitivity_trends(corpus200):
    start = time.monotonic()
    ok = True
    details = []
    for kind in ("stroke-insert", "stroke-delete", "point-drift", "stroke-drift"):
        reports = sensitivity_run(corpus200, kind, seed=0)
        by = {r.metric: r for r in reports}
        a, l = by["aiou"].raw_mean, by["ldtw"].raw_mean
        grid = by["aiou"].grid
        mono = (all(x >= y for x, y in zip(a, a[1:]))
                and all(x <= y for x, y in zip(l, l[1:])))
        rho_a = spearmanr(grid, a).correlation
        rho_l = spearmanr(grid, l).correlation
        ok &= mono and abs(rho_a) >= 0.9 and abs(rho_l) >= 0.9
        details.append(f"{kind} rho_aiou={rho_a:.2f} rho_ldtw={rho_l:.2f}")
    elapsed = time.monotonic() - start
    report(5, "sensitivity curves monotone with |rho| >= 0.9",
           ok and elapsed < 120.0, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_width_invariance(corpus200):
    reports = invariance_run(corpus200, "stroke-width", seed=0)
    by = {r.metric: r.raw_mean for r in reports}
    a, i = by["aiou"], by["iou"]
    spread = (max(a) - min(a)) / max(a)
    drop = (i[0] - i[-1]) / i[0]
    report(6, "AIoU spread <= 15% while IoU drops >= 40% at width 4",
           spread <= 0.15 and drop >= 0.40,
           f"aiou spread {spread:.3f}, iou drop {drop:.3f}")


def test_criterion_7_sample_rate_invariance():
    # smooth sparse-stroke glyphs: dense enough that the alignment length
    # tracks the factor, smooth enough that LDTW stays nearly flat
    corpus = make_synthetic_corpus(200, seed=0, stroke_range=(3, 4),
                                   points_range=(30, 44), step_range=(1.8, 3.2),
                                   wiggle=0.3)
    reports = invariance_run(corpus, "sample-rate", seed=0)
    by = {r.metric: r for r in reports}
    grid = by["dtw"].grid
    d, l = by["dtw"].raw_mean, by["ldtw"].raw_mean
    ge1 = [v for f, v in zip(grid, d) if f >= 1.0]
    increasing = all(x < y for x, y in zip(ge1, ge1[1:]))
    d_spread = (max(d) - min(d)) / max(d)
    l_spread = (max(l) - min(l)) / max(l)
    report(7, "DTW rises with sampling while LDTW spread <= half of DTW's",
           increasing and l_spread <= d_spread / 2.0,
           f"dtw spread {d_spread:.3f}, ldtw spread {l_spread:.3f}")


def test_criterion_8_loss_constants():
    w = LossWeights()
    ok = ((w.lambda1, w.lambda2, w.lambda3) == (0.5, 1.0, 1.0 / 6000.0)
          and w.class_weights == (1.0, 5.0, 1.0))
    report(8, "default loss weights (0.5, 1, 1/6000) and class weights (1, 5, 1)", ok)


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    commands = [
        ["sensitivity", "--synthetic", "30", "--error", "point-drift",
         "--seed", "17"],
        ["sensitivity", "--synthetic", "30", "--error", "stroke-delete",
         "--seed", "17", "--format", "json"],
        ["invariance", "--synthetic", "30", "--transform", "sample-rate",
         "--seed", "17"],
        ["invariance", "--synthetic", "30", "--transform", "stroke-width",
         "--seed", "17", "--format", "json"],
    ]
    ok = True
    for ci, argv in enumerate(commands):
        outputs = []
        for run, threads in ((0, "1"), (1, "8"), (2, "1")):
            monkeypatch.setenv("TRAJEVAL_THREADS", threads)
            path = tmp_path / f"c{ci}_r{run}.out"
            code = cli_main(argv + ["--out", str(path)])
            ok &= (code == 0)
            outputs.append(path.read_bytes())
        ok &= (outputs[0] == outputs[1] == outputs[2])
    report(9, "seeded CLI output byte-identical across runs and thread counts", ok)

"""Mask IoU and adaptive IoU tests against brute-force sweeps."""

import math

import numpy as np
import pytest

from trajeval import BinaryMask, aiou, dilate3x3, iou, rasterize
from trajeval.error_sim import drift_points

from conftest import random_traj


def iou_oracle(a, b):
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    return inter / union


def test_iou_hand_computed():
    g = BinaryMask(np.array([[1, 1, 0], [0, 0, 0]], dtype=bool))
    p = BinaryMask(np.array([[1, 0, 1], [0, 0, 0]], dtype=bool))
    assert iou(g, p) == pytest.approx(1 / 3)


def test_glyph_scores_round_as_the_reports_write_them():
    """49 / 640 lies just above the decimal tie 0.0765625: Python's `round` and
    the reports give 0.076563, numpy's `round` of an np.float64 0.076562.  The
    evaluate-long benchmark check met this pair at seed 192."""
    g, p = np.zeros((32, 32), bool), np.zeros((32, 32), bool)
    g.flat[:640], p.flat[:49] = True, True
    g, p = BinaryMask(g), BinaryMask(p)
    for score in (iou(g, p), aiou(g, p, 0).score):
        assert type(score) is float and round(score, 6) == 0.076563


def test_iou_bounds_and_identity(rng):
    bits = rng.random((16, 16)) < 0.3
    m = BinaryMask(bits)
    assert iou(m, m) == 1.0
    other = BinaryMask(rng.random((16, 16)) < 0.3)
    assert 0.0 <= iou(m, other) <= 1.0


def test_iou_empty_against_nonempty_is_zero():
    g = BinaryMask(np.zeros((4, 4), dtype=bool))
    p = BinaryMask(np.eye(4, dtype=bool))
    assert iou(g, p) == 0.0


def test_iou_rejects_shape_mismatch_and_double_empty():
    g = BinaryMask(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="dimensions differ"):
        iou(g, BinaryMask(np.zeros((4, 5), dtype=bool)))
    with pytest.raises(ValueError, match="both masks are empty"):
        iou(g, BinaryMask(np.zeros((4, 4), dtype=bool)))


def test_aiou_matches_brute_force_sweep(rng):
    for _ in range(20):
        gt = random_traj(rng, n_strokes=(1, 3), n_points=(2, 6))
        g = dilate3x3(rasterize(gt), int(rng.integers(0, 3)))
        p = rasterize(drift_points(gt, 2.0, int(rng.integers(1 << 30))))
        result = aiou(g, p, k_max=6)
        sweep = [iou_oracle(g.bits, dilate3x3(p, k).bits) for k in range(7)]
        assert result.score == pytest.approx(max(sweep))
        assert result.best_k == sweep.index(max(sweep))


def test_aiou_recovers_known_dilation_width(rng):
    traj = random_traj(rng, n_strokes=(2, 3), n_points=(3, 6))
    p = rasterize(traj)
    g = dilate3x3(p, 2)
    result = aiou(g, p, k_max=10)
    assert result.score == 1.0
    assert result.best_k == 2


def test_aiou_best_k_is_smallest_argmax():
    # full-canvas gt: every extra dilation beyond saturation ties at the max
    g = BinaryMask(np.ones((8, 8), dtype=bool))
    p = BinaryMask(np.pad(np.ones((2, 2), dtype=bool), 3))
    result = aiou(g, p, k_max=8)
    assert result.score == 1.0
    assert result.best_k == 3
    assert iou(g, dilate3x3(p, 4)) == 1.0  # later ties exist


def test_aiou_k_max_zero_equals_plain_iou(rng):
    bits = rng.random((10, 10)) < 0.4
    g, p = BinaryMask(bits), BinaryMask(rng.random((10, 10)) < 0.4)
    assert aiou(g, p, k_max=0).score == pytest.approx(iou(g, p))
    with pytest.raises(ValueError):
        aiou(g, p, k_max=-1)


@pytest.mark.parametrize("k_max, message", [
    (2.5, "k_max must be a whole number of at least 0, got 2.5"),
    (math.nan, "k_max must be a whole number of at least 0, got nan"),
    (math.inf, "k_max must be a whole number of at least 0, got inf"),
    (-math.inf, "k_max must be a whole number of at least 0, got -inf"),
    (-1, "k_max must be a whole number of at least 0, got -1"),
])
def test_aiou_rejects_a_k_max_that_is_not_a_non_negative_whole_number(k_max, message):
    g = BinaryMask(np.eye(4, dtype=bool))
    with pytest.raises(ValueError) as exc:
        aiou(g, g, k_max)
    assert str(exc.value) == message


def test_aiou_takes_a_whole_float_k_max_and_refuses_a_string():
    g, p = BinaryMask(np.eye(8, dtype=bool)), BinaryMask(np.eye(8, dtype=bool)[::-1])
    assert aiou(g, p, 3.0) == aiou(g, p, 3)
    with pytest.raises(TypeError):
        aiou(g, p, "3")

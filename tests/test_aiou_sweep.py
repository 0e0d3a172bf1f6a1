"""AIoU against a full dilation sweep built from the public dilate3x3 and iou.

`aiou` may stop its sweep early, so `score` and `best_k` are held to the
plain k = 0..k_max sweep with `==`, not a tolerance: the stop is only allowed
when it cannot change a single bit of the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import BinaryMask, aiou, dilate3x3, iou, rasterize
from trajeval.bench import make_synthetic_corpus
from trajeval.error_sim import perturb


def full_sweep(g, p, k_max):
    """(score, best_k) of the complete sweep; smallest k wins ties."""
    curve, widened = [], p
    for k in range(k_max + 1):
        if k > 0:
            widened = dilate3x3(widened, 1)
        curve.append(iou(g, widened))
    score = max(curve)
    return score, curve.index(score)


def assert_matches_full_sweep(g, p, k_max):
    try:
        want = full_sweep(g, p, k_max)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            aiou(g, p, k_max)
        assert str(got.value) == str(exc)
        return
    result = aiou(g, p, k_max)
    assert (result.score, result.best_k) == want


@st.composite
def _mask(draw, h, w):
    kind = draw(st.sampled_from(["random", "sparse", "empty", "full", "dot"]))
    bits = np.zeros((h, w), dtype=bool)
    if kind == "random":
        bits[:] = np.array(draw(st.lists(st.booleans(), min_size=h * w,
                                         max_size=h * w))).reshape(h, w)
    elif kind == "sparse":
        for _ in range(draw(st.integers(1, 4))):
            bits[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    elif kind == "full":
        bits[:] = True
    elif kind == "dot":
        bits[draw(st.sampled_from([0, h - 1])), draw(st.sampled_from([0, w - 1]))] = True
    return BinaryMask(bits)


@st.composite
def _mask_pairs(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    p = draw(_mask(h, w))
    if draw(st.booleans()):
        g = draw(_mask(h, w))
    else:  # a widened prediction as ground truth: ties once the widths meet
        g = dilate3x3(p, draw(st.integers(0, 4)))
    return g, p, draw(st.integers(0, 20))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mask_pairs())
def test_aiou_equals_full_sweep(case):
    assert_matches_full_sweep(*case)


@pytest.mark.parametrize("kind,magnitudes", [
    ("point-drift", (1.0, 4.0, 8.0)),
    ("stroke-drift", (1.0, 4.0, 8.0)),
    ("stroke-insert", (1, 3, 5)),
    ("stroke-delete", (1, 3, 5)),
])
def test_aiou_equals_full_sweep_on_perturbed_glyphs(kind, magnitudes):
    for i, gt in enumerate(make_synthetic_corpus(6, seed=4)):
        for magnitude in magnitudes:
            try:
                pred = perturb(gt, kind, magnitude, seed=100 + i)
            except ValueError:
                continue  # more deletions than the glyph has strokes
            p = rasterize(pred)
            for width in (0, 1, 3):
                assert_matches_full_sweep(dilate3x3(rasterize(gt), width), p, 10)


@pytest.mark.parametrize("g_kind,p_kind", [
    ("random", "dot"), ("full", "dot"), ("random", "empty"), ("empty", "random"),
    ("random", "random")])
def test_aiou_stops_long_before_a_huge_k_max(g_kind, p_kind, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(3))
    masks = {"random": rng.random((16, 16)) < 0.2, "full": np.ones((16, 16), bool),
             "empty": np.zeros((16, 16), bool), "dot": np.zeros((16, 16), bool)}
    masks["dot"][0, 0] = True
    g, p = BinaryMask(masks[g_kind]), BinaryMask(masks[p_kind])
    calls = []

    def counting_dilate(mask, k=1):
        calls.append(k)
        return dilate3x3(mask, k)

    monkeypatch.setattr("trajeval.glyph_metrics.dilate3x3", counting_dilate)
    result = aiou(g, p, k_max=10_000)
    assert len(calls) <= 17
    assert (result.score, result.best_k) == full_sweep(g, p, 10_000)

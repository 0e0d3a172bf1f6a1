"""AIoU against a full dilation sweep built from the public dilate3x3 and iou.

`aiou` may stop its sweep early, so `score` and `best_k` are held to the
plain k = 0..k_max sweep with `==`, not a tolerance: the stop is only allowed
when it cannot change a single bit of the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import BinaryMask, aiou, dilate3x3, glyph_metrics, iou, rasterize
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
    step = glyph_metrics._dilate_step

    def counting_step(words, width):
        calls.append(width)
        return step(words, width)

    monkeypatch.setattr(glyph_metrics, "_dilate_step", counting_step)
    result = aiou(g, p, k_max=10_000)
    assert len(calls) <= 17
    assert (result.score, result.best_k) == full_sweep(g, p, 10_000)


# --- the packed kernel: one batched call over mixed pairs --------------------

# word carries and the tail mask matter at 63, 64, 65 and 128 pixels a row
_SIDES = st.one_of(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 130]), st.integers(1, 130))


def _seeded_mask(draw, h, w):
    """A mask of any side: random bits come from a drawn seed, not from h * w draws."""
    kind = draw(st.sampled_from(["random", "sparse", "empty", "full", "dot"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return BinaryMask(rng.random((h, w)) < draw(st.sampled_from([0.02, 0.1, 0.4])))
    bits = np.full((h, w), kind == "full")
    if kind == "sparse":
        bits[rng.integers(h, size=4), rng.integers(w, size=4)] = True
    elif kind == "dot":
        bits[draw(st.sampled_from([0, h - 1])), draw(st.sampled_from([0, w - 1]))] = True
    return BinaryMask(bits)


@st.composite
def _any_pair(draw):
    h = draw(_SIDES)
    w = h if draw(st.booleans()) else draw(_SIDES)
    p = _seeded_mask(draw, h, w)
    shape = draw(st.sampled_from(["same", "same", "widened", "taller", "wider", "both-empty"]))
    if shape == "widened":  # ties once the widths meet
        return dilate3x3(p, draw(st.integers(0, 4))), p
    if shape == "both-empty":
        return BinaryMask(np.zeros((h, w), bool)), BinaryMask(np.zeros((h, w), bool))
    return _seeded_mask(draw, h + (shape == "taller"), w + (shape == "wider")), p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_any_pair(), min_size=1, max_size=6), st.integers(0, 12))
def test_one_batched_call_equals_the_full_sweep_of_each_pair(pairs, k_max):
    got = glyph_metrics._aiou_many(pairs, k_max)
    assert len(got) == len(pairs)
    for (g, p), result in zip(pairs, got):
        try:
            want = full_sweep(g, p, k_max)
        except ValueError as exc:
            assert isinstance(result, ValueError) and str(result) == str(exc)
            continue
        first, best = result
        assert (best.score, best.best_k) == want
        # IoU from bool counts, divided as Python ints
        inter, union = np.count_nonzero(g.bits & p.bits), np.count_nonzero(g.bits | p.bits)
        assert type(first) is float and first == inter / union
        assert type(best.score) is float and type(best.best_k) is int


def test_stacks_cut_by_the_cell_cap_give_the_lone_results(monkeypatch):
    rng = np.random.default_rng(8)
    pairs = [(BinaryMask(rng.random((16, 16)) < 0.3), BinaryMask(rng.random((16, 16)) < 0.05))
             for _ in range(20)]
    alone = [glyph_metrics._aiou_many([pair], 6)[0] for pair in pairs]
    monkeypatch.setattr("trajeval.traj_core._STACK_CELLS", 3 * 16 * 16)  # 7 stacks of <= 3
    assert glyph_metrics._aiou_many(pairs, 6) == alone


def test_glyph_scores_are_python_floats():
    g, p = BinaryMask(np.eye(70, dtype=bool)), BinaryMask(np.eye(70, dtype=bool)[::-1])
    assert type(iou(g, p)) is float
    assert type(aiou(g, p).score) is float and type(aiou(g, p).best_k) is int

"""Training-loss tests: soft-min closed forms, SDTW value and gradient
against finite differences, and the weighted total objective."""

import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trajeval import (LossWeights, NonFiniteSdtwError, PredictedPoint, PenState,
                      TrajPoint, Trajectory, l1_loss, make_synthetic_corpus, sdtw,
                      sdtw_grad, softmin, total_loss, wce_loss)
from trajeval import losses
from trajeval.losses import _soft_dp
from trajeval.seq_metrics import _coords, _diagonals

from conftest import random_traj, traj_from_strokes


def hard_sq_dtw(qc, pc):
    """Plain squared-Euclidean DTW by direct DP; independent of the package."""
    m, n = len(qc), len(pc)
    acc = np.full((m + 1, n + 1), math.inf)
    acc[0, 0] = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d = (qc[i - 1][0] - pc[j - 1][0]) ** 2 + (qc[i - 1][1] - pc[j - 1][1]) ** 2
            acc[i, j] = d + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    return float(acc[m, n])


def shift_point(traj, index, dx, dy):
    """Move one drawn point of a trajectory by (dx, dy)."""
    pts = list(traj.points)
    p = pts[index]
    pts[index] = TrajPoint(p.x + dx, p.y + dy, p.state)
    return Trajectory(tuple(pts), canvas_side=traj.canvas_side)


# --- soft-min ----------------------------------------------------------------

def test_softmin_single_value_is_identity():
    assert softmin([3.7], gamma=1.0) == pytest.approx(3.7)


def test_softmin_equal_values_closed_form():
    # -g*log(k*exp(-a/g)) = a - g*log(k)
    assert softmin([2.0, 2.0], gamma=1.0) == pytest.approx(2.0 - math.log(2.0))
    assert softmin([0.0, 0.0, 0.0], gamma=0.5) == pytest.approx(-0.5 * math.log(3.0))


def test_softmin_tends_to_min_as_gamma_shrinks():
    vals = [1.0, 2.5, 4.0]
    assert softmin(vals, gamma=1e-9) == pytest.approx(1.0, abs=1e-8)


def test_softmin_is_a_lower_bound_of_min(rng):
    vals = rng.normal(size=8).tolist()
    assert softmin(vals, gamma=0.7) <= min(vals)


def test_softmin_handles_large_magnitudes_without_overflow():
    assert math.isfinite(softmin([1e6, 1e6 + 1], gamma=1.0))


def test_softmin_rejects_bad_inputs():
    with pytest.raises(ValueError):
        softmin([], gamma=1.0)
    with pytest.raises(ValueError):
        softmin([1.0], gamma=0.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan, 10**400],
                         ids=["0.0", "-1.0", "inf", "nan", "10**400"])
def test_soft_dtw_rejects_gamma_that_is_not_positive_and_finite(gamma, rng):
    q, p = random_traj(rng), random_traj(rng)
    for call in (lambda: softmin([1.0, 2.0], gamma), lambda: sdtw(q, p, gamma),
                 lambda: sdtw_grad(q, p, gamma)):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            call()


def test_softmin_infinite_minimum_is_returned_as_is():
    assert softmin([math.inf, math.inf], gamma=1.0) == math.inf
    assert softmin([-math.inf, 2.0], gamma=1.0) == -math.inf
    assert softmin([math.inf, 2.0], gamma=1.0) == pytest.approx(2.0)
    assert isinstance(softmin([1.0, 2.0], gamma=1.0), float)


def test_softmin_over_arrays_is_elementwise(rng):
    cols = rng.normal(scale=5.0, size=(3, 7))
    cols[0, 1] = cols[1, 1] = cols[2, 1] = math.inf
    cols[1, 2] = math.inf
    cols[2, 3] = -math.inf
    cols[:, 4] = -math.inf
    for gamma in (1e-3, 0.5, 10.0):
        got = softmin((cols[0], cols[1], cols[2]), gamma)
        assert got.shape == (7,)
        want = [softmin(cols[:, k].tolist(), gamma) for k in range(7)]
        assert got.tolist() == pytest.approx(want, rel=1e-14)


# --- SDTW value --------------------------------------------------------------

def test_sdtw_tiny_gamma_matches_hard_squared_dtw(rng):
    for _ in range(10):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        hard = hard_sq_dtw(_coords(q).tolist(), _coords(p).tolist())
        assert sdtw(q, p, gamma=1e-6) == pytest.approx(hard, abs=1e-6)


def test_sdtw_single_pair_closed_form():
    q = traj_from_strokes([[(0.0, 0.0)]])
    p = traj_from_strokes([[(3.0, 4.0)]])
    assert sdtw(q, p, gamma=1.0) == pytest.approx(25.0)


def test_sdtw_is_below_hard_dtw(rng):
    q, p = random_traj(rng), random_traj(rng)
    hard = hard_sq_dtw(_coords(q).tolist(), _coords(p).tolist())
    assert sdtw(q, p, gamma=1.0) <= hard + 1e-9


def test_sdtw_rejects_non_positive_gamma(rng):
    with pytest.raises(ValueError):
        sdtw(random_traj(rng), random_traj(rng), gamma=0.0)


# --- SDTW gradient -----------------------------------------------------------

def test_sdtw_grad_matches_central_differences(rng):
    h = 1e-4
    for _ in range(8):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(2, 5))
        grad = sdtw_grad(q, p, gamma=1.0)
        pc = _coords(p)
        assert grad.shape == pc.shape
        fd = np.zeros_like(grad)
        for j in range(len(pc)):
            for axis, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
                hi = sdtw(q, shift_point(p, j, dx, dy), gamma=1.0)
                lo = sdtw(q, shift_point(p, j, -dx, -dy), gamma=1.0)
                fd[j, axis] = (hi - lo) / (2 * h)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(grad - fd).max() / scale < 1e-5


def test_sdtw_grad_zero_at_perfect_overlap(rng):
    """Coincident trajectories sit at a stationary point of the squared loss."""
    traj = random_traj(rng, n_strokes=(1, 1), n_points=(4, 4))
    grad = sdtw_grad(traj, traj, gamma=1.0)
    assert np.abs(grad).max() < 1e-9


def test_sdtw_grad_descent_step_reduces_loss(rng):
    q = random_traj(rng, n_strokes=(1, 1), n_points=(5, 5))
    p = random_traj(rng, n_strokes=(1, 1), n_points=(5, 5))
    grad = sdtw_grad(q, p, gamma=1.0)
    before = sdtw(q, p, gamma=1.0)
    stepped = p
    lr = 1e-3 / max(np.abs(grad).max(), 1.0)
    for j in range(len(grad)):
        stepped = shift_point(stepped, j, -lr * grad[j, 0], -lr * grad[j, 1])
    assert sdtw(q, stepped, gamma=1.0) < before


# --- soft-DTW against a scalar reference -------------------------------------

def sdtw_reference(qc, pc, gamma):
    """Soft-DTW value and gradient w.r.t. pc by scalar loops; independent of
    the package.  The gradient uses the backward recursion of Mensch & Blondel
    (2018) over the padded forward table, one cell at a time."""
    m, n = len(qc), len(pc)
    d = [[0.0] * (n + 2) for _ in range(m + 2)]
    for i in range(m):
        for j in range(n):
            d[i + 1][j + 1] = ((qc[i][0] - pc[j][0]) ** 2
                               + (qc[i][1] - pc[j][1]) ** 2)
    r = [[math.inf] * (n + 2) for _ in range(m + 2)]
    r[0][0] = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            prev = (r[i - 1][j - 1], r[i - 1][j], r[i][j - 1])
            lo = min(prev)
            total = sum(math.exp(-(v - lo) / gamma) for v in prev)
            r[i][j] = d[i][j] + lo - gamma * math.log(total)
    value = r[m][n]
    for i in range(m + 2):
        r[i][n + 1] = -math.inf
    for j in range(n + 2):
        r[m + 1][j] = -math.inf
    r[m + 1][n + 1] = value
    e = [[0.0] * (n + 2) for _ in range(m + 2)]
    e[m + 1][n + 1] = 1.0
    for i in range(m, 0, -1):
        for j in range(n, 0, -1):
            e[i][j] = sum(math.exp((r[i + di][j + dj] - r[i][j] - d[i + di][j + dj])
                                   / gamma) * e[i + di][j + dj]
                          for di, dj in ((1, 0), (0, 1), (1, 1)))
    grad = [[sum(e[i + 1][j + 1] * 2.0 * (pc[j][k] - qc[i][k]) for i in range(m))
             for k in range(2)] for j in range(n)]
    return value, np.array(grad)


@pytest.mark.parametrize("gamma", [1e-3, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (8, 1), (2, 3), (6, 6),
                                 (13, 7), (40, 37)])
def test_sdtw_and_grad_match_scalar_reference(m, n, gamma):
    rng = np.random.Generator(np.random.PCG64(1000 * m + n))
    q = traj_from_strokes([rng.uniform(0.0, 63.0, size=(m, 2)).tolist()])
    p = traj_from_strokes([rng.uniform(0.0, 63.0, size=(n, 2)).tolist()])
    value, grad = sdtw_reference(_coords(q).tolist(), _coords(p).tolist(), gamma)
    assert sdtw(q, p, gamma) == pytest.approx(value, rel=1e-9)
    got = sdtw_grad(q, p, gamma)
    assert got.shape == (n, 2)
    assert np.abs(got - grad).max() <= 1e-9 * np.abs(grad).max()


# --- soft-DTW against the per-diagonal reference -----------------------------

def soft_dp_reference(q, p, gamma):
    """Forward soft-DTW by one `softmin` call per anti-diagonal, each with its
    own stacked temporaries: (qc, pc, d, r, diagonals) as `_soft_dp` gives
    them.  The in-place forward must match it bit for bit."""
    qc, pc = _coords(q), _coords(p)
    m, n = len(qc), len(pc)
    d = np.zeros((m + 2, n + 2))
    d[1:m + 1, 1:n + 1] = ((qc[:, None] - pc[None]) ** 2).sum(axis=2)
    r = np.full((m + 2, n + 2), math.inf)
    r[0, 0] = 0.0
    fd, fr, w = d.ravel(), r.ravel(), n + 2
    diagonals = _diagonals(m, n)
    for a, b in diagonals:
        fr[a:b:n + 1] = fd[a:b:n + 1] + softmin(
            (fr[a - w - 1:b - w - 1:n + 1], fr[a - w:b - w:n + 1],
             fr[a - 1:b - 1:n + 1]), gamma)
    return qc, pc, d, r, diagonals


def sdtw_grad_reference(q, p, gamma):
    """Backward recursion computing each diagonal's successor weights as it
    walks, summed below, right, diagonal; the precomputed-weight walk must
    match it bit for bit.  A successor whose r overflowed to +inf lies on no
    finite path: its exponent, inf - inf or -inf, is set to -inf (weight 0)."""
    qc, pc, d, r, diagonals = soft_dp_reference(q, p, gamma)
    m, n = len(qc), len(pc)
    r[m + 1, :] = -math.inf
    r[:, n + 1] = -math.inf
    r[m + 1, n + 1] = r[m, n]
    e = np.zeros_like(r)
    e[m + 1, n + 1] = 1.0
    fd, fr, fe, w = d.ravel(), r.ravel(), e.ravel(), n + 2

    def weight(a, b, o):
        succ = slice(a + o, b + o, n + 1)
        exponent = fr[succ] - fr[a:b:n + 1] - fd[succ]
        return np.exp(np.where(fr[succ] == math.inf, -math.inf, exponent) / gamma)

    for a, b in reversed(diagonals):
        fe[a:b:n + 1] = sum(weight(a, b, o) * fe[a + o:b + o:n + 1] for o in (w, 1, w + 1))
    weights = e[1:m + 1, 1:n + 1]
    return 2.0 * (weights.sum(axis=0)[:, None] * pc - weights.T @ qc)


def assert_matches_per_diagonal_reference(q, p, gamma):
    ref = soft_dp_reference(q, p, gamma)
    got = _soft_dp(q, p, gamma)
    assert got[2].tobytes() == ref[2].tobytes()
    assert got[3].tobytes() == ref[3].tobytes()
    assert sdtw(q, p, gamma) == ref[3][-2, -2]
    assert sdtw_grad(q, p, gamma).tobytes() == sdtw_grad_reference(q, p, gamma).tobytes()


@pytest.mark.parametrize("extent", ["canvas", "gamma"])
@pytest.mark.parametrize("gamma", [1e-3, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (8, 1), (13, 7), (49, 49),
                                 (400, 350)])
def test_soft_dtw_is_bit_identical_to_the_per_diagonal_reference(m, n, gamma, extent):
    """On the canvas, neighbouring costs differ by far more than gamma and
    the soft-min is nearly a hard min; points spread over a few sqrt(gamma)
    make every exponential of the soft-min and of the weights count."""
    side = 63.0 if extent == "canvas" else 3.0 * math.sqrt(gamma)
    rng = np.random.Generator(np.random.PCG64(7000 + 1000 * m + n))
    q = traj_from_strokes([rng.uniform(0.0, side, size=(m, 2)).tolist()])
    p = traj_from_strokes([rng.uniform(0.0, side, size=(n, 2)).tolist()])
    assert_matches_per_diagonal_reference(q, p, gamma)


_coord = st.floats(0.0, 4.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=12),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=12),
       st.floats(1e-3, 10.0))
@example([(0.0, 0.0), (1.5, 2.0), (3.0, 0.5)], [(0.5, 0.0), (2.0, 2.5)], 1.0)  # no / gamma, * gamma
def test_soft_dtw_matches_the_per_diagonal_reference_on_random_pairs(qxy, pxy, gamma):
    assert_matches_per_diagonal_reference(traj_from_strokes([qxy]),
                                          traj_from_strokes([pxy]), gamma)


def _scaled(traj, factor):
    return Trajectory.from_arrays(traj.xy * factor, traj.state, traj.canvas_side)


def test_soft_dtw_raises_instead_of_returning_a_non_finite_result():
    """Squared distances far above gamma overflow the backward's weights
    (value 3.1e20 at 1e8) and, further up, the value itself; both raise a
    named error without a RuntimeWarning."""
    q, p = make_synthetic_corpus(2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(sdtw_grad(_scaled(q, 1e6), _scaled(p, 1e6))).all()
        q8, p8 = _scaled(q, 1e8), _scaled(p, 1e8)
        assert math.isfinite(sdtw(q8, p8))
        with pytest.raises(NonFiniteSdtwError, match="gradient is not finite"):
            sdtw_grad(q8, p8)
        q160, p160 = _scaled(q, 1e160), _scaled(p, 1e160)
        with pytest.raises(NonFiniteSdtwError, match="value is inf"):
            sdtw(q160, p160)
        with pytest.raises(NonFiniteSdtwError):
            sdtw_grad(q160, p160)
    assert issubclass(NonFiniteSdtwError, ValueError)


def test_a_value_of_minus_inf_names_gamma():
    """Each soft-min falls up to gamma * ln 3 below the minimum, so a huge
    gamma sinks the value to -inf while every distance is small.  Unguarded,
    the -inf cells give NaN, so this value also comes from the guarded rerun."""
    q = traj_from_strokes([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]])
    p = traj_from_strokes([[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (sdtw, sdtw_grad):
            with pytest.raises(NonFiniteSdtwError) as exc:
                call(q, p, gamma=1e308)
            assert str(exc.value) == "soft-DTW value is -inf: gamma=1e+308 is too large for float64"


def test_a_nan_value_reruns_the_fill_with_the_guard():
    """Cell (1, 3) has three infinite predecessors: unguarded it is
    inf - inf = NaN, which reaches r[m, n], so the fill runs again with the
    guard and the value is the finite path's 0.  Both tables and the
    gradient match the reference bit for bit."""
    q = traj_from_strokes([[(0.0, 0.0), (1e160, 0.0)]])
    p = traj_from_strokes([[(0.0, 0.0), (1e160, 0.0), (1e160, 0.0)]])
    with np.errstate(over="ignore", invalid="ignore"):  # the reference's own overflows
        assert_matches_per_diagonal_reference(q, p, 1.0)
    got = _soft_dp(q, p, 1.0)
    assert math.isinf(got[3][1, 3]) and got[3][2, 3] == 0.0
    ordinary = traj_from_strokes([[(0.0, 0.0), (1.0, 2.0)]])
    with warnings.catch_warnings(), \
            mock.patch.object(losses, "_fill", wraps=losses._fill) as fills:
        warnings.simplefilter("error")
        assert sdtw(q, p) == 0.0
        assert fills.call_count == 2
        sdtw(ordinary, ordinary)
        assert fills.call_count == 3
        assert sdtw_grad(q, p).tolist() == [[0.0, 0.0]] * 3


def test_sdtw_peak_memory_per_cell():
    """The forward holds its distance and soft-DP tables, and a table-sized
    temporary only while the distances are built, before the soft-DP table."""
    rng = np.random.Generator(np.random.PCG64(600))
    q = traj_from_strokes([rng.uniform(0.0, 63.0, size=(600, 2)).tolist()])
    p = traj_from_strokes([rng.uniform(0.0, 63.0, size=(500, 2)).tolist()])
    tracemalloc.start()
    try:
        sdtw(q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (600 * 500) < 20


def test_sdtw_grad_peak_memory_per_cell():
    """The gradient holds the distance, soft-DP and backward tables and a
    fixed scratch block, not a table per successor weight."""
    rng = np.random.Generator(np.random.PCG64(600))
    q = traj_from_strokes([rng.uniform(0.0, 63.0, size=(600, 2)).tolist()])
    p = traj_from_strokes([rng.uniform(0.0, 63.0, size=(500, 2)).tolist()])
    tracemalloc.start()
    try:
        sdtw_grad(q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (600 * 500) <= 28


def test_sdtw_grad_gives_overflowed_cells_weight_zero():
    """Cells past the squared-distance overflow have r = +inf and lie on no
    finite path; the finite path's value and gradient still come out."""
    q = traj_from_strokes([[(0.0, 0.0), (1e160, 0.0)]])
    p = traj_from_strokes([[(0.0, 0.0), (1e160, 1.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = sdtw_grad(q, p)
        assert sdtw(q, p) == 1.0
        after = sdtw_grad(q, p)
    assert alone.tolist() == after.tolist() == [[0.0, 0.0], [0.0, 2.0]]


def _forward_runs():
    """Count the forwards run, through the module's own `_soft_dp`."""
    return mock.patch.object(losses, "_soft_dp", wraps=losses._soft_dp)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=60),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=60),
       st.floats(0.05, 20.0))
def test_sdtw_grad_after_sdtw_reuses_its_forward_bit_for_bit(qxy, pxy, gamma):
    assume(len(qxy) != len(pxy))
    q, p = traj_from_strokes([qxy]), traj_from_strokes([pxy])
    alone = sdtw_grad(q, p, gamma).tobytes()
    assert not losses._last_forward
    sdtw(q, p, gamma)
    with _forward_runs() as forward:
        after = sdtw_grad(q, p, gamma).tobytes()
    assert forward.call_count == 0
    assert not losses._last_forward
    assert after == alone == sdtw_grad_reference(q, p, gamma).tobytes()


@pytest.mark.parametrize("case", ["equal but distinct p", "other gamma",
                                  "sdtw in between", "second sdtw_grad"])
def test_sdtw_grad_runs_its_own_forward_unless_sdtw_left_its_pair(case, rng):
    q, p = random_traj(rng, n_points=(5, 9)), random_traj(rng, n_points=(5, 9))
    gamma = 2.0 if case == "other gamma" else 1.0
    alone = sdtw_grad(q, p, gamma).tobytes()
    sdtw(q, p)
    if case == "equal but distinct p":
        p = Trajectory.from_arrays(p.xy, p.state, p.canvas_side)
    elif case == "sdtw in between":
        sdtw(p, q)
    elif case == "second sdtw_grad":
        assert sdtw_grad(q, p).tobytes() == alone
        assert not losses._last_forward
    with _forward_runs() as forward:
        got = sdtw_grad(q, p, gamma).tobytes()
    assert forward.call_count == 1
    assert got == alone
    assert not losses._last_forward


def test_sdtw_grad_empties_the_slot_before_its_backward_overwrites_the_tables(rng):
    q, p = random_traj(rng), random_traj(rng)
    sdtw(q, p)
    slot_at_backward = []

    def backward(*args):
        slot_at_backward.append(dict(losses._last_forward))
        real(*args)

    real = losses._successor_weights
    with mock.patch.object(losses, "_successor_weights", backward):
        sdtw_grad(q, p)
    assert slot_at_backward == [{}]


def test_sdtw_that_raises_leaves_no_forward():
    q, p = make_synthetic_corpus(2, seed=1)
    sdtw(q, p)
    with pytest.raises(NonFiniteSdtwError):
        sdtw(_scaled(q, 1e160), _scaled(p, 1e160))
    assert not losses._last_forward
    with pytest.raises(ValueError, match="gamma"):
        sdtw(q, p, gamma=0.0)
    assert not losses._last_forward


def test_sdtw_then_sdtw_grad_peak_memory_per_cell():
    """The step peaks no higher than the gradient alone; sdtw keeps only its
    distance and soft-DP tables, and sdtw_grad leaves no table behind."""
    rng = np.random.Generator(np.random.PCG64(600))
    q = traj_from_strokes([rng.uniform(0.0, 63.0, size=(600, 2)).tolist()])
    p = traj_from_strokes([rng.uniform(0.0, 63.0, size=(500, 2)).tolist()])
    cells = 600 * 500
    tracemalloc.start()
    try:
        sdtw(q, p)
        kept = tracemalloc.get_traced_memory()[0]
        sdtw_grad(q, p)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / cells <= 17
    assert peak / cells <= 28
    assert current / cells < 1  # a float64 table is 8 bytes per cell


def test_threads_sharing_pairs_never_share_forward_tables():
    """Threads stepping on the same pair objects race for the one slot; the
    backward overwrites the tables it takes, so a slot two threads both took
    would corrupt a gradient."""
    rng = np.random.Generator(np.random.PCG64(13))
    pairs = [tuple(traj_from_strokes([rng.uniform(0.0, 6.0, size=(k, 2)).tolist()])
                   for k in (12, 9)) for _ in range(3)]
    expected = [sdtw_grad(q, p).tobytes() for q, p in pairs]
    bad = []

    def step():
        for _ in range(60):
            for (q, p), want in zip(pairs, expected):
                sdtw(q, p)
                if sdtw_grad(q, p).tobytes() != want:
                    bad.append((q, p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=step) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


# --- L1 / weighted cross-entropy / total -------------------------------------

def uniform_pred(gt):
    return [PredictedPoint(p.x, p.y, (1 / 3, 1 / 3, 1 / 3)) for p in gt.points]


def test_l1_loss_hand_computed():
    gt = traj_from_strokes([[(0, 0), (2, 2)]], eos=False)
    pred = [PredictedPoint(1.0, 0.0, (1, 0, 0)), PredictedPoint(2.0, 4.5, (0, 1, 0))]
    assert l1_loss(pred, gt) == pytest.approx((1.0 + 2.5) / 2)


def test_l1_loss_requires_equal_lengths():
    gt = traj_from_strokes([[(0, 0), (2, 2)]], eos=False)
    with pytest.raises(ValueError):
        l1_loss([PredictedPoint(0, 0, (1, 0, 0))], gt)


def test_wce_requires_equal_lengths():
    gt = traj_from_strokes([[(0, 0), (2, 2)]], eos=False)
    with pytest.raises(ValueError) as exc:
        wce_loss([PredictedPoint(0, 0, (1, 0, 0))], gt)
    assert str(exc.value) == "length mismatch: 1 predictions vs 2 ground-truth points"


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
                                  (10**400, 0.0)])
def test_predicted_point_rejects_non_finite_coordinates(x, y):
    with pytest.raises(ValueError) as exc:
        PredictedPoint(x, y, (1, 0, 0))
    assert str(exc.value) == "non-finite predicted coordinates"


def test_wce_uniform_probs_give_weighted_log3():
    gt = Trajectory((TrajPoint(0, 0, PenState.UP),))
    assert wce_loss(uniform_pred(gt), gt) == pytest.approx(5.0 * math.log(3.0))
    gt2 = Trajectory((TrajPoint(0, 0, PenState.DOWN),))
    assert wce_loss(uniform_pred(gt2), gt2) == pytest.approx(1.0 * math.log(3.0))


def test_wce_reads_the_class_weights_of_loss_weights():
    gt = Trajectory((TrajPoint(0, 0, PenState.UP),))
    flat = LossWeights(class_weights=(1, 1, 1))
    assert wce_loss(uniform_pred(gt), gt, flat) == pytest.approx(math.log(3.0))


def test_wce_confident_correct_prediction_is_near_zero():
    gt = Trajectory((TrajPoint(0, 0, PenState.DOWN),))
    pred = [PredictedPoint(0, 0, (1.0 - 2e-7, 1e-7, 1e-7))]
    assert wce_loss(pred, gt) < 1e-6


def test_wce_clamps_zero_probability():
    gt = Trajectory((TrajPoint(0, 0, PenState.UP),))
    pred = [PredictedPoint(0, 0, (1.0, 0.0, 0.0))]
    assert wce_loss(pred, gt) == pytest.approx(-5.0 * math.log(1e-12))


def test_predicted_point_validates_probs():
    with pytest.raises(ValueError):
        PredictedPoint(0, 0, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        PredictedPoint(0, 0, (-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        PredictedPoint(0, 0, (math.nan, 0.5, 0.5))
    with pytest.raises(ValueError, match="state_probs must be 3 finite non-negative values"):
        PredictedPoint(0, 0, (10**400, 0, 0))


def test_default_weights():
    w = LossWeights()
    assert (w.lambda1, w.lambda2, w.lambda3) == (0.5, 1.0, 1.0 / 6000.0)
    assert w.class_weights == (1.0, 5.0, 1.0)


def test_total_loss_is_the_weighted_sum():
    w = LossWeights()
    assert total_loss(2.0, 3.0, 6000.0, w) == pytest.approx(0.5 * 2 + 3 + 1.0)
    with pytest.raises(ValueError):
        total_loss(math.nan, 0.0, 0.0, w)
    with pytest.raises(ValueError, match="l1 component is not finite"):
        total_loss(10**400, 0.0, 0.0, w)


def test_loss_weights_reject_negatives():
    with pytest.raises(ValueError):
        LossWeights(lambda1=-0.1)
    with pytest.raises(ValueError):
        LossWeights(class_weights=(1.0, -5.0, 1.0))
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        for field in ("lambda1", "lambda2", "lambda3"):
            with pytest.raises(ValueError, match="loss weights must be finite and non-negative"):
                LossWeights(**{field: bad})
        with pytest.raises(ValueError, match="class_weights must be 3 finite non-negative"):
            LossWeights(class_weights=(1.0, bad, 1.0))

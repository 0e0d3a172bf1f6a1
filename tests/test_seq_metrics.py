"""DTW / LDTW / RMSE tests with an exhaustive alignment-path oracle."""

import math

import numpy as np
import pytest

from trajeval import AlignmentPath, dtw, ldtw, rmse
from trajeval.seq_metrics import _coords

from conftest import random_traj, traj_from_strokes


def enumerate_paths(m, n):
    """All monotone paths from (1, 1) to (m, n) with steps (1,0),(0,1),(1,1)."""
    if m == 1 and n == 1:
        return [[(1, 1)]]
    out = []
    if m > 1:
        out += [p + [(m, n)] for p in enumerate_paths(m - 1, n)]
    if n > 1:
        out += [p + [(m, n)] for p in enumerate_paths(m, n - 1)]
    if m > 1 and n > 1:
        out += [p + [(m, n)] for p in enumerate_paths(m - 1, n - 1)]
    return out


def dtw_oracle(qc, pc):
    """Minimum Euclidean path cost by explicit enumeration."""
    best = math.inf
    for path in enumerate_paths(len(qc), len(pc)):
        cost = sum(math.hypot(qc[i - 1][0] - pc[j - 1][0],
                              qc[i - 1][1] - pc[j - 1][1]) for i, j in path)
        best = min(best, cost)
    return best


# --- alignment path invariants -----------------------------------------------

def test_alignment_path_validation():
    AlignmentPath(((1, 1), (2, 2), (3, 2)))
    with pytest.raises(ValueError):
        AlignmentPath(())
    with pytest.raises(ValueError):
        AlignmentPath(((2, 1), (3, 2)))        # bad start
    with pytest.raises(ValueError):
        AlignmentPath(((1, 1), (3, 1)))        # jump of 2
    with pytest.raises(ValueError):
        AlignmentPath(((1, 1), (1, 1)))        # no progress


# --- DTW ---------------------------------------------------------------------

def test_dtw_identical_trajectories_cost_zero(rng):
    traj = random_traj(rng)
    result = dtw(traj, traj)
    n = len(traj.drawn_points())
    assert result.cost == 0.0
    assert len(result.path) == n  # pure diagonal under diagonal-first ties


def test_dtw_hand_computed_pair():
    q = traj_from_strokes([[(0, 0), (1, 0), (2, 0)]])
    p = traj_from_strokes([[(0, 1), (2, 1)]])
    result = dtw(q, p)
    # (0,0)->(0,1)=1, (1,0)->(0,1)=sqrt 2 or (1,0)->(2,1)=sqrt 2, (2,0)->(2,1)=1
    assert result.cost == pytest.approx(2.0 + math.sqrt(2.0))


def test_dtw_matches_enumeration_oracle(rng):
    for _ in range(60):
        q = random_traj(rng, n_strokes=(1, 2), n_points=(1, 3))
        p = random_traj(rng, n_strokes=(1, 2), n_points=(1, 3))
        qc, pc = _coords(q).tolist(), _coords(p).tolist()
        if len(qc) > 6 or len(pc) > 6:
            continue
        assert dtw(q, p).cost == pytest.approx(dtw_oracle(qc, pc), abs=1e-9)


def test_dtw_path_is_consistent_with_cost(rng):
    q, p = random_traj(rng), random_traj(rng)
    result = dtw(q, p)
    qc, pc = _coords(q), _coords(p)
    recomputed = sum(math.hypot(*(qc[i - 1] - pc[j - 1])) for i, j in result.path.pairs)
    assert recomputed == pytest.approx(result.cost)
    assert result.path.pairs[-1] == (len(qc), len(pc))


def test_dtw_path_length_bounds(rng):
    for _ in range(20):
        q, p = random_traj(rng), random_traj(rng)
        m, n = len(_coords(q)), len(_coords(p))
        t = len(dtw(q, p).path)
        assert max(m, n) <= t <= m + n - 1


def test_dtw_is_symmetric_in_cost(rng):
    q, p = random_traj(rng), random_traj(rng)
    assert dtw(q, p).cost == pytest.approx(dtw(p, q).cost)


def test_dtw_ignores_pen_states_and_eos():
    a = traj_from_strokes([[(0, 0), (1, 1), (2, 2)]], eos=True)
    b = traj_from_strokes([[(0, 0), (1, 1)], [(2, 2)]], eos=False)
    assert dtw(a, b).cost == 0.0


# --- LDTW --------------------------------------------------------------------

def test_ldtw_is_cost_over_path_length(rng):
    q, p = random_traj(rng), random_traj(rng)
    result = dtw(q, p)
    assert ldtw(q, p) == pytest.approx(result.cost / len(result.path))
    assert result.ldtw == ldtw(q, p)


def test_ldtw_removes_length_bias():
    """Repeating every point inflates DTW but leaves LDTW nearly unchanged."""
    q = traj_from_strokes([[(0, 0), (10, 0), (20, 0), (30, 0)]])
    p = traj_from_strokes([[(0, 2), (10, 2), (20, 2), (30, 2)]])
    p_dense = traj_from_strokes(
        [[(x, 2) for x in (0, 0, 10, 10, 20, 20, 30, 30)]])
    assert dtw(q, p_dense).cost == pytest.approx(2 * dtw(q, p).cost)
    assert ldtw(q, p_dense) == pytest.approx(ldtw(q, p))


# --- RMSE --------------------------------------------------------------------

def test_rmse_hand_computed():
    q = traj_from_strokes([[(0, 0), (0, 4)]])
    p = traj_from_strokes([[(3, 0), (0, 0)]])
    assert rmse(q, p) == pytest.approx(math.sqrt((9 + 16) / 2))


def test_rmse_requires_equal_lengths():
    q = traj_from_strokes([[(0, 0), (1, 1)]])
    p = traj_from_strokes([[(0, 0), (1, 1), (2, 2)]])
    with pytest.raises(ValueError, match="length mismatch"):
        rmse(q, p)


def test_rmse_upper_bounds_mean_dtw_step(rng):
    """DTW never exceeds the sum of index-wise distances (Jensen on RMSE)."""
    q = random_traj(rng, n_strokes=(1, 1), n_points=(6, 6))
    p = random_traj(rng, n_strokes=(1, 1), n_points=(6, 6))
    qc, pc = _coords(q), _coords(p)
    indexwise = sum(math.hypot(*(a - b)) for a, b in zip(qc, pc))
    assert dtw(q, p).cost <= indexwise + 1e-9

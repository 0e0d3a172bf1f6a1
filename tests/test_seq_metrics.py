"""DTW / LDTW / RMSE tests with an exhaustive alignment-path oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import AlignmentPath, Trajectory, dtw, dtw_many, ldtw, rmse
from trajeval import seq_metrics, traj_core
from trajeval.bench import (DEFAULT_GRIDS, SENSITIVITY_KINDS, derive_seed,
                            make_synthetic_corpus)
from trajeval.error_sim import change_sample_rate, perturb
from trajeval.seq_metrics import _coords, _diagonals
from trajeval.traj_core import DOWN, EOS, UP

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


def test_walked_paths_and_user_paths_pass_the_same_checks(rng):
    """A path walked by `.path` is checked like one built from user pairs: it
    equals the path of its own pairs, and those pairs with a bad step raise."""
    result = dtw(random_traj(rng), random_traj(rng))
    assert result.path == AlignmentPath(result.path.pairs)
    assert all(type(pair) is tuple for pair in result.path.pairs)
    (i, j), rest = result.path.pairs[-1], result.path.pairs[:-1]
    with pytest.raises(ValueError, match="invalid alignment step"):
        AlignmentPath(rest + ((i + 2, j),))
    with pytest.raises(ValueError, match="must start at"):
        AlignmentPath([list(pair) for pair in result.path.pairs[1:]])


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


def test_distances_past_the_float_range_give_inf_without_a_warning():
    """The library's DTW, LDTW and RMSE stay inf here; `bench.score_pairs`
    turns such a value into the metric's error."""
    q = traj_from_strokes([[(-1e200, 0.0), (1e200, 5.0)]])
    p = traj_from_strokes([[(1e200, 0.0), (-1e200, 5.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = dtw(q, p)
        assert (result.cost, result.ldtw, rmse(q, p)) == (math.inf, math.inf, math.inf)


def test_rmse_upper_bounds_mean_dtw_step(rng):
    """DTW never exceeds the sum of index-wise distances (Jensen on RMSE)."""
    q = random_traj(rng, n_strokes=(1, 1), n_points=(6, 6))
    p = random_traj(rng, n_strokes=(1, 1), n_points=(6, 6))
    qc, pc = _coords(q), _coords(p)
    indexwise = sum(math.hypot(*(a - b)) for a, b in zip(qc, pc))
    assert dtw(q, p).cost <= indexwise + 1e-9


# --- row-loop reference ------------------------------------------------------

def dtw_reference(qc, pc):
    """Full-table row-loop DTW and its backtrack: (cost, 1-based path pairs).

    Ties in the backtrack prefer the diagonal step, then the q-advance, then
    the p-advance.
    """
    dist = np.sqrt(((qc[:, None, :] - pc[None, :, :]) ** 2).sum(axis=2))
    m, n = dist.shape
    d = dist.tolist()
    acc = [[0.0] * n for _ in range(m)]
    acc[0][0] = d[0][0]
    for j in range(1, n):
        acc[0][j] = acc[0][j - 1] + d[0][j]
    for i in range(1, m):
        row, prev, drow = acc[i], acc[i - 1], d[i]
        row[0] = prev[0] + drow[0]
        for j in range(1, n):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = drow[j] + best
    pairs = [(m, n)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        pairs.append((i + 1, j + 1))
    pairs.reverse()
    return float(acc[-1][-1]), tuple(pairs)


def _polyline(xy):
    """One-stroke trajectory over the given (k, 2) coordinates, no EOS."""
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    return Trajectory.from_arrays(xy, [DOWN] * (len(xy) - 1) + [UP])


def _tie_heavy_pairs():
    rng = np.random.Generator(np.random.PCG64(2022))
    # integer coordinates on a 4x4 grid: many equal distances and path costs
    for _ in range(260):
        m, n = (int(v) for v in rng.integers(1, 13, size=2))
        yield (rng.integers(0, 4, size=(m, 2)).astype(float),
               rng.integers(0, 4, size=(n, 2)).astype(float))
    # predictions that reuse the ground truth's points, repeated or skipped
    for _ in range(120):
        qc = rng.uniform(0.0, 63.0, size=(int(rng.integers(1, 30)), 2))
        idx = np.sort(rng.integers(0, len(qc), size=int(rng.integers(1, 40))))
        yield qc, qc[idx]
    # identical trajectories
    for k in (1, 2, 5, 17, 60):
        qc = rng.integers(0, 4, size=(k, 2)).astype(float)
        yield qc, qc.copy()
    # degenerate shapes 1x1, 1xn and mx1
    for k in (1, 2, 3, 9, 40):
        a = rng.integers(0, 4, size=(1, 2)).astype(float)
        b = rng.integers(0, 4, size=(k, 2)).astype(float)
        yield a, b
        yield b, a
    # sensitivity and sample-rate pairs at the benchmark's two lengths
    for points, steps in ((7, (5.0, 11.0)), (34, (1.2, 2.5))):
        corpus = make_synthetic_corpus(3, seed=7, stroke_range=(7, 7),
                                       points_range=(points, points),
                                       step_range=steps)
        for g, gt in enumerate(corpus):
            for kind in SENSITIVITY_KINDS:
                for magnitude in DEFAULT_GRIDS[kind]:
                    try:
                        pred = perturb(gt, kind, magnitude, derive_seed(5, g))
                    except ValueError:
                        continue
                    yield _coords(gt), _coords(pred)
            for factor in DEFAULT_GRIDS["sample-rate"]:
                yield _coords(gt), _coords(change_sample_rate(gt, factor))


def test_dtw_matches_row_loop_reference():
    count = 0
    for qc, pc in _tie_heavy_pairs():
        result = dtw(_polyline(qc), _polyline(pc))
        cost, pairs = dtw_reference(qc, pc)
        assert result.cost == cost
        assert result.path.pairs == pairs
        count += 1
    assert count > 550


def test_dtw_peak_memory_per_cell():
    """One long alignment allocates one float64 table and a small scratch
    band, not boxed floats and not a second table-sized temporary."""
    rng = np.random.Generator(np.random.PCG64(600))
    q = _polyline(rng.uniform(0.0, 63.0, size=(600, 2)))
    p = _polyline(rng.uniform(0.0, 63.0, size=(500, 2)))
    tracemalloc.start()
    try:
        dtw(q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (600 * 500) < 10


def test_a_full_chunk_peaks_near_its_table(monkeypatch):
    """A full `_STACK_CELLS` chunk of the sweeps' 49-point pairs is one forward
    pass that peaks within 1.25x its table's bytes: the distances are built
    in the table, not beside it."""
    rng = np.random.Generator(np.random.PCG64(49))
    count = traj_core._STACK_CELLS // (51 * 51)
    pairs = [(_polyline(rng.uniform(0.0, 63.0, size=(49, 2))),
              _polyline(rng.uniform(0.0, 63.0, size=(49, 2)))) for _ in range(count)]
    forward, peaks = seq_metrics._forward, []

    def measured(coords):
        tracemalloc.start()
        try:
            r = forward(coords)
            peaks.append((len(coords), tracemalloc.get_traced_memory()[1] / r.nbytes))
        finally:
            tracemalloc.stop()
        return r

    monkeypatch.setattr(seq_metrics, "_forward", measured)
    dtw_many(pairs)
    assert count > 40
    assert len(peaks) == 1 and peaks[0][0] == count
    assert peaks[0][1] < 1.25


def test_dtw_many_frees_each_chunk_before_the_next(monkeypatch):
    """100 pairs of 49 points cut into two chunks peak near one chunk's table,
    not two (2.12 MiB when the first table was held while the second was built)."""
    rng = np.random.Generator(np.random.PCG64(50))
    pairs = [(_polyline(rng.uniform(0.0, 63.0, size=(49, 2))),
              _polyline(rng.uniform(0.0, 63.0, size=(49, 2)))) for _ in range(100)]
    monkeypatch.setattr(traj_core, "_STACK_CELLS", 50 * 51 * 51)
    forward, tables = seq_metrics._forward, []
    monkeypatch.setattr(seq_metrics, "_forward",
                        lambda coords: tables.append(len(coords)) or forward(coords))
    tracemalloc.start()
    try:
        dtw_many(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables == [50, 50]
    assert peak < 1.25 * 50 * 51 * 51 * 8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 150), st.integers(1, 150)), min_size=2, max_size=8),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_dtw_many_is_bit_identical_across_chunk_sizes(lengths, seed, per_chunk):
    """Long pairs of unequal lengths, cut into chunks of about `per_chunk`
    pairs, into one chunk, or aligned alone, get the same cost and T."""
    rng = np.random.default_rng(seed)
    pairs = [(_polyline(rng.uniform(0.0, 63.0, size=(m, 2))),
              _polyline(rng.uniform(0.0, 63.0, size=(n, 2)))) for m, n in lengths]
    largest = max((m + 2) * (n + 2) for m, n in lengths)
    results = []
    for cells in (per_chunk * largest, len(lengths) * 152 * 152):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(traj_core, "_STACK_CELLS", cells)
            results.append(dtw_many(pairs))
    results.append([dtw(q, p) for q, p in pairs])
    for chunked, whole, alone in zip(*results):
        assert (chunked.cost, chunked.length) == (whole.cost, whole.length)
        assert (alone.cost, alone.length) == (whole.cost, whole.length)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(100, 300), st.tuples(st.integers(1, 5), st.integers(1, 5)),
       st.lists(st.integers(30, 60), min_size=1, max_size=3),
       st.lists(st.integers(250, 300), min_size=3, max_size=4),
       st.integers(0, 2 ** 32 - 1), st.randoms())
def test_long_unequal_pairs_match_alone_and_the_reference_across_cap_and_padding_cuts(
        m, short, middle, wide, seed, shuffler):
    """Pairs of one q length against p lengths up to 300, in shuffled order, in
    one `dtw_many` call whose cap holds two of the widest tables.  The two
    shortest pairs are cut off by padding alone (a third, 30 or more points,
    would make padding most of the stack), and the wide ones by the cap alone
    (three would pass it, with little padding).  Each pair's cost and T are
    bit-identical to a lone `dtw` and to the row-loop reference."""
    rng = np.random.default_rng(seed)
    lengths = list(short) + middle + wide
    coords = [(rng.uniform(0.0, 63.0, size=(m, 2)), rng.uniform(0.0, 63.0, size=(n, 2)))
              for n in lengths]
    shuffler.shuffle(coords)
    pairs = [(_polyline(qc), _polyline(pc)) for qc, pc in coords]
    chunks = []
    forward = seq_metrics._forward
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traj_core, "_STACK_CELLS", 2 * (m + 2) * (max(wide) + 2))
        patch.setattr(seq_metrics, "_forward",
                      lambda chunk: chunks.append(sorted(len(pc) for _, pc in chunk))
                      or forward(chunk))
        batch = dtw_many(pairs)
    assert chunks[0] == sorted(short) and sum(map(len, chunks)) == len(lengths)
    assert max(sum(n >= 250 for n in chunk) for chunk in chunks) == 2
    for (qc, pc), got, (q, p) in zip(coords, batch, pairs):
        alone = dtw(q, p)
        cost, path = dtw_reference(qc, pc)
        assert (got.cost, got.length) == (alone.cost, alone.length) == (cost, len(path))


# --- batched DTW -------------------------------------------------------------

def test_dtw_many_matches_row_loop_reference(monkeypatch):
    """One batch over every tie-heavy pair, with pairs that have no drawn
    points placed between them, gives each pair its own reference result."""
    forward_calls = []
    forward = seq_metrics._forward
    monkeypatch.setattr(seq_metrics, "_forward",
                        lambda coords: forward_calls.append(len(coords)) or forward(coords))
    empty = Trajectory.from_arrays([(1.0, 1.0)], [EOS])
    coords, pairs = [], []
    for k, (qc, pc) in enumerate(_tie_heavy_pairs()):
        if k % 97 == 3:
            pairs.append((empty, _polyline(pc)) if k % 2 else (_polyline(qc), empty))
            coords.append(None)
        coords.append((qc, pc))
        pairs.append((_polyline(qc), _polyline(pc)))
    results = dtw_many(pairs)
    assert len(results) == len(pairs) and coords.count(None) >= 5
    assert len(forward_calls) > 3 and sum(forward_calls) == len(pairs) - coords.count(None)
    for want, got in zip(coords, results):
        if want is None:
            assert isinstance(got, ValueError)
            assert str(got) == "trajectory has no drawn points to align"
            continue
        cost, path = dtw_reference(*want)
        assert got.cost == cost
        assert got.path.pairs == path


_GRID_COORDS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)
_HUGE = st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308])
_HUGE_COORDS = st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_GRID_COORDS, _GRID_COORDS), min_size=1, max_size=10),
       st.lists(st.tuples(_HUGE_COORDS, _HUGE_COORDS), max_size=3), st.randoms())
def test_dtw_many_length_and_path_match_the_reference(grid_pairs, huge_pairs, shuffler):
    """A batch mixing pairs on a 4x4 integer grid (exact ties everywhere) with
    pairs whose distances overflow to inf gives each pair the reference's cost,
    its path's length as T, and its path."""
    pairs = [(np.array(qc, dtype=float), np.array(pc, dtype=float))
             for qc, pc in grid_pairs + huge_pairs]
    shuffler.shuffle(pairs)
    with np.errstate(over="ignore"):  # +-1e308 apart: the distance overflows to inf
        results = dtw_many([(_polyline(qc), _polyline(pc)) for qc, pc in pairs])
        for (qc, pc), got in zip(pairs, results):
            cost, path = dtw_reference(qc, pc)
            assert (got.cost, got.length) == (cost, len(path))
            assert got.path.pairs == path
            assert got.ldtw == cost / len(path)


def test_dtw_many_of_nothing_is_empty():
    assert dtw_many([]) == []


def test_dtw_many_holds_one_chunk_at_a_time():
    """The working memory of a 1,600-pair batch stays within a small factor of
    a 100-pair batch's: chunks are filled one after another, never as one
    table for the whole sweep.  The results themselves are kept, so the peak
    is taken above the memory they hold at the end; that holds each pair's
    cost and T, no path and no chunk table (5.45 MiB when each held a path)."""
    corpus = make_synthetic_corpus(200, seed=0)
    pairs = [(gt, perturb(gt, "point-drift", magnitude, derive_seed(0, i)))
             for i, gt in enumerate(corpus) for magnitude in DEFAULT_GRIDS["point-drift"]]
    assert len(pairs) == 1600

    def working_peak(batch):
        tracemalloc.start()
        try:
            results = dtw_many(batch)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(batch)
        return peak - held, held

    (small, _), (large, held) = working_peak(pairs[:100]), working_peak(pairs)
    assert held < 1.5 * 2 ** 20
    assert large < 3 * small
    # a whole-sweep table would need 8 bytes for each of the sweep's cells
    cells = sum(len(_coords(q)) * len(_coords(p)) for q, p in pairs)
    assert large < 8 * cells / 10


def diagonals_reference(m, n):
    """The flat diagonal bounds of an (m+2, n+2) table, one diagonal at a time."""
    bounds = []
    for s in range(2, m + n + 1):
        i0, i1 = max(1, s - n), min(m, s - 1)
        bounds.append((i0 * (n + 1) + s, i1 * (n + 1) + s + 1))
    return bounds


def test_diagonals_match_the_loop_reference():
    for m in range(1, 41):
        for n in range(1, 41):
            got = _diagonals(m, n)
            assert got == diagonals_reference(m, n)
            assert all(type(a) is int and type(b) is int for a, b in got)
    assert _diagonals(238, 238) == diagonals_reference(238, 238)

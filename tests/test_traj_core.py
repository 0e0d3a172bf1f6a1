"""Data model, stroke segmentation, preprocessing, and file-format tests."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajeval import rasterize, traj_core
from trajeval import (PenState, TrajPoint, Trajectory, dedupe_points,
                      downsample_half, load_trajectory, make_synthetic_corpus,
                      normalize_to_canvas, resample, resample_many, save_trajectory,
                      stroke_bounds, strokes_of)
from trajeval.traj_core import (_canvas_side_of, pixel_of, trajectory_from_obj,
                                trajectory_to_points_obj,
                                trajectory_to_strokes_obj)

from conftest import random_traj, traj_from_strokes, trajectories


# --- pen states and validation ----------------------------------------------

def test_pen_state_one_hot_round_trip():
    for state in PenState:
        assert PenState.from_one_hot(state.one_hot()) is state


@pytest.mark.parametrize("vec", [[1, 1, 0], [0, 0, 0], [2, 0, 0], [1, 0], [1, 0, 0, 0]])
def test_pen_state_rejects_non_one_hot(vec):
    with pytest.raises(ValueError):
        PenState.from_one_hot(vec)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        TrajPoint(math.nan, 0.0, PenState.DOWN)
    with pytest.raises(ValueError):
        TrajPoint(0.0, math.inf, PenState.UP)


def test_trajectory_rejects_misplaced_eos():
    a = TrajPoint(0, 0, PenState.EOS)
    b = TrajPoint(1, 1, PenState.UP)
    with pytest.raises(ValueError):
        Trajectory((a, b))          # EOS not last
    with pytest.raises(ValueError):
        Trajectory((b, a, a))       # two EOS markers
    with pytest.raises(ValueError):
        Trajectory(())


# name, xy, state, canvas_side
MALFORMED_COLUMNS = [
    ("empty", np.zeros((0, 2)), [], 64),
    ("non-finite", [[0.0, 0.0], [math.nan, 1.0]], [0, 1], 64),
    ("infinite", [[math.inf, 0.0]], [1], 64),
    ("eos-not-last", [[0.0, 0.0], [1.0, 1.0]], [2, 1], 64),
    ("two-eos", [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [1, 2, 2], 64),
    ("zero-canvas", [[0.0, 0.0]], [1], 0),
    ("negative-canvas", [[0.0, 0.0]], [1], -3),
    ("state-3", [[0.0, 0.0]], [3], 64),
    ("state-minus-1", [[0.0, 0.0], [1.0, 1.0]], [0, -1], 64),
    ("length-mismatch", [[0.0, 0.0], [1.0, 1.0]], [1], 64),
    ("xy-not-pairs", [[0.0, 0.0, 0.0]], [1], 64),
]


@pytest.mark.parametrize("xy, state, side", [c[1:] for c in MALFORMED_COLUMNS],
                         ids=[c[0] for c in MALFORMED_COLUMNS])
def test_constructors_reject_the_same_malformed_input(xy, state, side):
    with pytest.raises(ValueError):
        Trajectory.from_arrays(xy, state, side)
    rows = np.asarray(xy, dtype=float)
    if rows.shape == (len(state), 2) and set(state) <= {0, 1, 2}:
        with pytest.raises(ValueError):  # TrajPoint itself rejects non-finite
            Trajectory(tuple(TrajPoint(x, y, PenState(s))
                             for (x, y), s in zip(rows.tolist(), state)),
                       canvas_side=side)


def test_columns_are_read_only(rng):
    traj = random_traj(rng)
    with pytest.raises(ValueError):
        traj.xy[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.state[0] = PenState.UP.value
    with pytest.raises(AttributeError):
        traj.xy = np.zeros((1, 2))


def test_from_arrays_copies_its_inputs():
    xy, state = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
    traj = Trajectory.from_arrays(xy, state, 8)
    xy[0, 0], state[1] = 99.0, 0
    assert traj.xy.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert traj.state.tolist() == [0, 1]
    assert traj.xy.dtype == np.float64 and traj.state.dtype == np.int8
    assert xy.flags.writeable and state.flags.writeable


def test_points_view_round_trips(rng):
    for eos in (True, False):
        traj = random_traj(rng, eos=eos)
        back = Trajectory(traj.points, traj.canvas_side)
        assert np.array_equal(back.xy, traj.xy)
        assert np.array_equal(back.state, traj.state)
        assert back.canvas_side == traj.canvas_side
        assert [p.state for p in traj.points] == \
            [PenState(s) for s in traj.state.tolist()]


def test_stroke_bounds_follow_pen_up_points():
    state = [0, 1, 1, 0, 0, 1, 0, 0, 2]  # single-point stroke, open last stroke
    traj = Trajectory.from_arrays(np.zeros((len(state), 2)), state, 8)
    assert stroke_bounds(traj) == [(0, 2), (2, 3), (3, 6), (6, 8)]
    assert stroke_bounds(Trajectory.from_arrays([[0.0, 0.0]], [2], 8)) == []


def _rows(state):
    return Trajectory.from_arrays(np.zeros((len(state), 2)), state, 8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trajectories())
@example(_rows([0, 1, 1, 0, 1, 2]))  # with an EOS row
@example(_rows([0, 1, 0, 0, 1]))     # without one
@example(_rows([0, 1, 0, 0, 2]))     # a last stroke without its pen-up
@example(_rows([1, 0]))              # the same, and no EOS row
@example(_rows([2]))                 # EOS only: no strokes
def test_stroke_bounds_tile_the_drawn_rows(traj):
    """The strokes are non-empty and in order, and cover the drawn rows
    0 .. len(drawn_xy()) with no gap: `resample_many` relies on it."""
    bounds = stroke_bounds(traj)
    edges = [0] + [b for _, b in bounds]
    assert bounds == list(zip(edges, edges[1:]))
    assert all(a < b for a, b in bounds)
    assert edges[-1] == len(traj.drawn_xy())
    if len(traj) == 1 and traj.has_eos:
        assert bounds == []


def test_pixel_rounding_is_half_up():
    assert pixel_of(0.5, 1.5) == (1, 2)
    assert pixel_of(0.49999, 2.0) == (0, 2)
    assert pixel_of(3.0, 0.0) == (3, 0)


# --- stroke segmentation -----------------------------------------------------

def test_strokes_of_splits_on_pen_up():
    traj = traj_from_strokes([[(0, 0), (1, 1)], [(5, 5), (6, 6), (7, 7)]])
    strokes = strokes_of(traj)
    assert [len(s) for s in strokes] == [2, 3]
    assert strokes[0].points[-1].state is PenState.UP
    assert strokes[1].points[0].state is PenState.DOWN


def test_strokes_of_accepts_trailing_open_stroke():
    pts = (TrajPoint(0, 0, PenState.UP), TrajPoint(1, 1, PenState.DOWN),
           TrajPoint(2, 2, PenState.DOWN))
    strokes = strokes_of(Trajectory(pts))
    assert [len(s) for s in strokes] == [1, 2]


def test_strokes_of_ignores_eos():
    traj = traj_from_strokes([[(0, 0), (1, 0)]], eos=True)
    assert sum(len(s) for s in strokes_of(traj)) == 2


# --- normalization -----------------------------------------------------------

def test_normalize_maps_long_side_to_side_minus_one(rng):
    traj = random_traj(rng, n_strokes=(2, 3))
    out = normalize_to_canvas(traj, 64)
    xs = [p.x for p in out.drawn_points()]
    ys = [p.y for p in out.drawn_points()]
    assert min(xs) == pytest.approx(0.0, abs=1e-12)
    assert min(ys) == pytest.approx(0.0, abs=1e-12)
    assert max(max(xs), max(ys)) == pytest.approx(63.0, abs=1e-9)
    assert max(xs) < 64.0 and max(ys) < 64.0


def test_normalize_preserves_aspect_ratio():
    traj = traj_from_strokes([[(0, 0), (10, 5)]])
    out = normalize_to_canvas(traj, 64)
    p0, p1 = out.drawn_points()
    assert p1.x - p0.x == pytest.approx(63.0)
    assert p1.y - p0.y == pytest.approx(31.5)


def test_normalize_degenerate_bbox_centers_on_canvas():
    traj = traj_from_strokes([[(7, 7), (7, 7)]])
    out = normalize_to_canvas(traj, 64)
    for p in out.drawn_points():
        assert (p.x, p.y) == (31.5, 31.5)


def test_normalize_rejects_tiny_canvas():
    traj = traj_from_strokes([[(0, 0), (1, 1)]])
    with pytest.raises(ValueError):
        normalize_to_canvas(traj, 1)


def test_normalize_names_a_trajectory_with_no_drawn_points():
    traj = Trajectory((TrajPoint(1, 1, PenState.EOS),), canvas_side=64)
    with pytest.raises(ValueError) as exc:
        normalize_to_canvas(traj)
    assert str(exc.value) == "trajectory has no drawn points to normalize"


# a stroke whose x span, 2e308, is past the float range though both ends are finite
_FLOAT_RANGE_STROKE = traj_from_strokes([[(-1e308, 0.0), (1e308, 5.0)]])


@pytest.mark.parametrize("traj,message", [
    (_FLOAT_RANGE_STROKE, "drawn points span more than the float range"),
    # 63 / 5e-324 is inf, and the origin point maps to 0 * inf
    (traj_from_strokes([[(0.0, 0.0), (5e-324, 0.0)]]), "non-finite coordinates (nan, nan)"),
    # an end-of-sequence row far from the ink scales past the float range
    (Trajectory.from_arrays([(0.0, 0.0), (1.0, 1.0), (1e308, 0.0)], [0, 1, 2]),
     "non-finite coordinates (inf, 0.0)"),
])
def test_normalize_refuses_an_overflow_without_a_warning(traj, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            normalize_to_canvas(traj)
    assert str(exc.value) == message


# --- dedupe / downsample / resample ------------------------------------------

def test_dedupe_collapses_same_pixel_runs():
    traj = traj_from_strokes([[(0, 0), (0.2, 0.1), (0.4, 0.3), (5, 5)]])
    out = dedupe_points(traj)
    assert len(out.drawn_points()) == 2
    assert out.drawn_points()[-1].state is PenState.UP


def test_dedupe_never_merges_across_strokes():
    traj = traj_from_strokes([[(0, 0), (0, 0.1)], [(0, 0.2), (9, 9)]])
    out = dedupe_points(traj)
    assert len(strokes_of(out)) == 2


def test_downsample_half_keeps_stroke_endpoints():
    traj = traj_from_strokes([[(i, 0) for i in range(7)], [(i, 5) for i in range(4)]])
    out = downsample_half(traj)
    s1, s2 = strokes_of(out)
    assert [p.x for p in s1.points] == [0, 2, 4, 6]
    assert [p.x for p in s2.points] == [0, 2, 3]
    assert s1.points[-1].state is PenState.UP


def test_resample_point_count_formula(rng):
    for factor in (1.0, 1.5, 2.0, 3.0, 4.0):
        traj = random_traj(rng, n_strokes=(1, 4), n_points=(2, 9))
        out = resample(traj, factor)
        for before, after in zip(strokes_of(traj), strokes_of(out)):
            n = len(before)
            assert len(after) == math.floor(factor * (n - 1) + 0.5) + 1


def test_resample_interpolates_on_original_segments(rng):
    traj = random_traj(rng, n_strokes=(1, 3), n_points=(2, 6))
    out = resample(traj, 3.0)
    for before, after in zip(strokes_of(traj), strokes_of(out)):
        segs = list(zip(before.points, before.points[1:]))
        for p in after.points:
            best = min(_point_segment_distance(p, a, b) for a, b in segs)
            assert best < 1e-9


def _point_segment_distance(p, a, b):
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    vx, vy = bx - ax, by - ay
    denom = vx * vx + vy * vy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, ((p.x - ax) * vx + (p.y - ay) * vy) / denom))
    return math.hypot(p.x - (ax + t * vx), p.y - (ay + t * vy))


def test_resample_downsamples_keeping_endpoints():
    traj = traj_from_strokes([[(i, 0) for i in range(9)]])
    out = resample(traj, 0.5)
    pts = strokes_of(out)[0].points
    assert len(pts) == 5
    assert pts[0].x == 0 and pts[-1].x == 8


@pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, math.nan])
def test_resample_rejects_a_non_positive_or_non_finite_factor(factor, rng):
    with pytest.raises(ValueError, match=f"must be positive and finite, got {factor}"):
        resample(random_traj(rng), factor)


def test_resample_rejects_a_factor_past_exact_point_counts():
    """Past 2**53 a stroke's point count is no longer an exact rounding: the
    44-row glyph came back with 44 rows and a numpy cast warning at 1e20."""
    glyph = make_synthetic_corpus(1, seed=1)[0]
    longest = max(b - a for a, b in stroke_bounds(glyph))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for factor in (1e20, 2.0 ** 53 / (longest - 1)):
            with pytest.raises(ValueError) as exc:
                resample(glyph, factor)
            assert str(exc.value) == f"resample factor {factor} gives a stroke over 2**53 points"


def test_resample_refuses_more_rows_than_the_address_space_holds():
    """1e15 passes the 2**53 rule for this glyph's 9-point strokes but asks for
    about 3.7e16 rows (263 PiB), which numpy refuses before allocating."""
    glyph = make_synthetic_corpus(1, seed=1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            resample(glyph, 1e15)
    assert str(exc.value) == "resample factor 1000000000000000.0 gives too many points to hold"


def test_resample_reports_an_overflowing_segment_as_non_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            resample(_FLOAT_RANGE_STROKE, 2.0)
    assert str(exc.value) == "non-finite coordinates (inf, 2.5)"


def test_resample_identity_factor_is_noop(rng):
    traj = random_traj(rng)
    out = resample(traj, 1.0)
    assert [(p.x, p.y, p.state) for p in out.points] == \
           [(p.x, p.y, p.state) for p in traj.points]


def test_resample_rejects_non_positive_factor(rng):
    with pytest.raises(ValueError):
        resample(random_traj(rng), 0.0)


def resample_reference(stroke, factor):
    """Point-by-point definition of one stroke's resampled coordinates."""
    def rhu(v):
        return math.floor(v + 0.5)
    n = len(stroke)
    if n == 1:
        return list(stroke)
    if factor < 1:
        target = max(rhu(factor * (n - 1)) + 1, 2)
        keep = sorted({rhu(k * (n - 1) / (target - 1)) for k in range(target)})
        return [stroke[i] for i in keep]
    out, prev_r = [stroke[0]], 0
    for i in range(1, n):
        r = rhu(factor * i)
        pieces, prev_r = max(r - prev_r, 1), r
        (ax, ay), (bx, by) = stroke[i - 1], stroke[i]
        out += [(ax + (bx - ax) * (j / pieces), ay + (by - ay) * (j / pieces))
                for j in range(1, pieces)]
        out.append(stroke[i])
    return out


def test_resample_matches_pointwise_reference(rng):
    for trial in range(60):
        traj = random_traj(rng, n_strokes=(1, 4), n_points=(1, 9), eos=trial % 2 == 0)
        strokes = [[tuple(p) for p in s.xy.tolist()] for s in strokes_of(traj)]
        for factor in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.7):
            out = resample(traj, factor)
            assert [[tuple(p) for p in s.xy.tolist()] for s in strokes_of(out)] == \
                [resample_reference(s, factor) for s in strokes]
            assert [s.state[-1] for s in strokes_of(out)] == \
                [s.state[-1] for s in strokes_of(traj)]
            assert out.has_eos == traj.has_eos


def resample_per_stroke(traj, factor):
    """`resample` as it was computed one stroke at a time, kept as the byte
    reference of the one-pass version."""
    def rhu(v):
        return np.floor(v + 0.5).astype(np.int64)

    def one(pts):
        n = len(pts)
        if n == 1:
            return pts
        if factor < 1:
            target = max(int(rhu(factor * (n - 1))) + 1, 2)
            return pts[np.unique(rhu(np.arange(target) * (n - 1) / (target - 1)))]
        pieces = np.maximum(np.diff(rhu(factor * np.arange(n))), 1)
        seg = np.repeat(np.arange(n - 1), pieces)
        j = np.arange(len(seg)) + 1 - np.repeat(np.cumsum(pieces) - pieces, pieces)
        a, b = pts[seg], pts[seg + 1]
        out = a + (b - a) * (j / pieces[seg])[:, None]
        ends = j == pieces[seg]
        out[ends] = b[ends]
        return np.concatenate([pts[:1], out])

    bounds = stroke_bounds(traj)
    return traj_core.join_strokes([one(traj.xy[a:b]) for a, b in bounds], traj,
                                  traj.state[[b - 1 for _, b in bounds]])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trajectories(coord=st.floats(-100.0, 100.0)),
       st.floats(0.01, 6.0) | st.sampled_from([0.5, 1.0, 1.5, 2, 3]))
def test_resample_is_byte_identical_to_the_per_stroke_reference(traj, factor):
    out, want = resample(traj, factor), resample_per_stroke(traj, factor)
    assert (out.xy.tobytes(), out.state.tobytes(), out.canvas_side) == \
        (want.xy.tobytes(), want.state.tobytes(), want.canvas_side)


def _result(result) -> tuple:
    """A resampled trajectory's bytes, or an error's type and text."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return result.xy.tobytes(), result.state.tobytes(), result.canvas_side


def _alone(traj, factor):
    try:
        return _result(resample(traj, factor))
    except ValueError as exc:
        return _result(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(trajectories(max_points=4, coord=st.floats(-100.0, 100.0)),
                          st.floats(0.01, 0.99) | st.floats(1.0, 6.0)
                          | st.sampled_from([0.5, 1.0, 2, 3, np.float64(0.5), np.float64(2.0)])),
                min_size=1, max_size=6),
       st.integers(0, 6))
def test_resample_many_is_bit_identical_to_lone_resample(jobs, bad_at):
    """Factors below and at or above 1 in one call (numpy scalars too),
    strokes of 1 and 2 points, trajectories with and without EOS, and a
    factor past 2**53 points among them: each job gets a lone `resample`'s
    bytes, and the per-stroke reference's, or its error."""
    jobs.insert(min(bad_at, len(jobs)), (traj_from_strokes([[(0, 0), (1, 1)]]), 2.0 ** 60))
    got = resample_many(jobs)
    assert len(got) == len(jobs)
    for (traj, factor), result in zip(jobs, got):
        assert _result(result) == _alone(traj, factor)
        if factor != 2.0 ** 60:
            assert _result(result) == _result(resample_per_stroke(traj, factor))
    assert str(got[min(bad_at, len(jobs) - 1)]) == \
        "resample factor 1.152921504606847e+18 gives a stroke over 2**53 points"


def test_resample_many_fails_only_the_jobs_that_cannot_be_held():
    """Rows numpy cannot count (twenty jobs of 60 strokes at 2**52.9 points
    each) or allocate (1e15 on a 44-point glyph) fail only their own jobs,
    each named by its own factor; the other jobs are resampled as alone."""
    glyph = make_synthetic_corpus(1, seed=1)[0]
    wide = traj_from_strokes([[(0, 0), (1, 1)]] * 60)
    huge = 2.0 ** 52.9
    jobs = [(glyph, 2.0), (glyph, 1e15), (glyph, 0.5)] + [(wide, huge)] * 20 + [(glyph, 3.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = resample_many(jobs)
        assert [_result(result) for result in got] == [_alone(*job) for job in jobs]
    assert [type(result) for result in got] == \
        [Trajectory, ValueError, Trajectory] + [ValueError] * 20 + [Trajectory]
    assert str(got[1]) == "resample factor 1000000000000000.0 gives too many points to hold"
    assert str(got[3]) == f"resample factor {huge} gives too many points to hold"


def test_resample_many_of_nothing_is_empty():
    assert resample_many([]) == []


def test_preprocessing_preserves_eos(rng):
    traj = random_traj(rng, eos=True)
    for op in (dedupe_points, downsample_half, lambda t: resample(t, 2.0)):
        assert op(traj).has_eos


# --- file formats ------------------------------------------------------------

def test_points_obj_round_trip(rng):
    traj = random_traj(rng)
    back = trajectory_from_obj(trajectory_to_points_obj(traj))
    assert back.canvas_side == traj.canvas_side
    assert [(p.x, p.y, p.state) for p in back.points] == \
           [(p.x, p.y, p.state) for p in traj.points]


def test_strokes_obj_round_trip_appends_eos(rng):
    traj = random_traj(rng, eos=False)
    back = trajectory_from_obj(trajectory_to_strokes_obj(traj))
    assert back.has_eos
    assert [(p.x, p.y) for p in back.drawn_points()] == \
           [(p.x, p.y) for p in traj.drawn_points()]
    assert [len(s) for s in strokes_of(back)] == [len(s) for s in strokes_of(traj)]


def test_save_load_round_trip(tmp_path, rng):
    traj = random_traj(rng)
    for form in ("points", "strokes"):
        path = tmp_path / f"t_{form}.json"
        save_trajectory(traj, path, form=form)
        back = load_trajectory(path)
        assert [(p.x, p.y) for p in back.drawn_points()] == \
               [(p.x, p.y) for p in traj.drawn_points()]


@pytest.mark.parametrize("obj", [
    [],                                           # not an object
    {"canvas": [64, 64]},                         # neither form
    {"canvas": 64, "points": []},                 # bad canvas shape
    {"strokes": []},                              # no strokes
    {"strokes": [[]]},                            # empty stroke
    {"strokes": [[[1, 2, 3]]]},                   # bad point arity
    {"points": [{"x": 0, "y": 0, "s": [1, 1, 0]}]},  # bad one-hot
    {"points": 5},                                # points not a list
    {"strokes": 5},                               # strokes not a list
    {"strokes": [5]},                             # stroke not a list
    {"canvas": ["a", 1], "points": []},           # non-numeric canvas
    {"canvas": [float("inf"), 2], "points": []},  # canvas too large for an int
    {"strokes": [[[None, 1]]]},                   # null coordinate
    {"strokes": [[[10 ** 400, 1]]]},              # coordinate too large for a float
    {"points": [{"x": 10 ** 400, "y": 0, "s": [1, 0, 0]}]},
    {"canvas": [64.7, 64], "strokes": [[[1, 2]]]},           # fractional canvas side
    {"canvas": [64, float("nan")], "strokes": [[[1, 2]]]},   # NaN canvas side
    {"canvas": ["64", "1e400"], "strokes": [[[1, 2]]]},      # infinite side as text
    {"canvas": [-5, 64], "strokes": [[[1, 2]]]},             # negative canvas side
    {"canvas": [0, 64], "strokes": [[[1, 2]]]},              # zero canvas side
])
def test_rejects_malformed_objects(obj):
    with pytest.raises(ValueError):
        trajectory_from_obj(obj)


def test_canvas_sides_are_compared_as_numbers():
    obj = {"canvas": ["100", "64"], "strokes": [[[1, 2]]]}
    assert trajectory_from_obj(obj).canvas_side == 100
    assert trajectory_from_obj({"canvas": [64.0, 32], "strokes": [[[1, 2]]]}).canvas_side == 64


_BAD_SIDES = [64.5, np.float64(64.5), 0, -3, math.nan, math.inf]
_ONE_STROKE = ([(1.0, 2.0), (30.0, 40.0)], [PenState.DOWN.value, PenState.UP.value])


@pytest.mark.parametrize("side", _BAD_SIDES)
def test_from_arrays_rejects_a_canvas_side_that_is_not_a_whole_number_of_at_least_1(side):
    with pytest.raises(ValueError) as exc:
        Trajectory.from_arrays(*_ONE_STROKE, side)
    assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


@pytest.mark.parametrize("side", _BAD_SIDES)
def test_points_constructor_rejects_a_canvas_side_that_is_not_a_whole_number_of_at_least_1(side):
    points = [TrajPoint(x, y, PenState(s)) for (x, y), s in zip(*_ONE_STROKE)]
    with pytest.raises(ValueError) as exc:
        Trajectory(points, side)
    assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


@pytest.mark.parametrize("side", [64.5, np.float64(64.5), math.nan])
def test_normalize_to_canvas_rejects_a_side_that_is_not_whole(side):
    """A side of at least 2 passes normalize's own check; the trajectory it
    builds names the side instead of failing at the first render."""
    with pytest.raises(ValueError) as exc:
        normalize_to_canvas(Trajectory.from_arrays(*_ONE_STROKE), side)
    assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


@pytest.mark.parametrize("side", [64.5, np.float64(64.5)])
def test_make_synthetic_corpus_rejects_a_side_that_is_not_whole(side):
    with pytest.raises(ValueError) as exc:
        make_synthetic_corpus(2, seed=1, side=side)
    assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


def test_a_whole_float_canvas_side_is_kept_as_an_int():
    for traj in (Trajectory.from_arrays(*_ONE_STROKE, np.float64(64.0)),
                 normalize_to_canvas(Trajectory.from_arrays(*_ONE_STROKE), 32.0),
                 make_synthetic_corpus(1, seed=1, side=np.float64(48.0))[0]):
        assert type(traj.canvas_side) is int
        assert rasterize(traj).width == traj.canvas_side


_scalars = (st.none() | st.booleans() | st.text(max_size=4) | st.floats()
            | st.integers(min_value=-10 ** 400, max_value=10 ** 400))
_json_like = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["canvas", "points", "strokes",
                                                      "x", "y", "s"]) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=24)
_trajectory_like = st.fixed_dictionaries({}, optional={
    "canvas": st.lists(_scalars, min_size=2, max_size=2) | _json_like,
    "points": st.lists(st.fixed_dictionaries(
        {"x": _scalars, "y": _scalars,
         "s": st.lists(st.sampled_from([0, 1]) | _scalars, max_size=4)}), max_size=4)
    | _json_like,
    "strokes": st.lists(st.lists(st.lists(_scalars, max_size=3) | _json_like,
                                 max_size=3), max_size=3) | _json_like,
})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_json_like | _trajectory_like)
def test_parser_fuzz_raises_only_value_error(obj):
    try:
        trajectory_from_obj(obj)
    except ValueError:
        pass


def trajectory_from_obj_reference(obj) -> Trajectory:
    """Point-by-point parser: one `TrajPoint` per record, then `Trajectory`."""
    if not isinstance(obj, dict):
        raise ValueError("trajectory file must contain a JSON object")
    side = _canvas_side_of(obj)
    if "points" in obj:
        if not isinstance(obj["points"], list):
            raise ValueError("'points' must be a list of point records")
        points = []
        for i, rec in enumerate(obj["points"]):
            try:
                state = PenState.from_one_hot(rec["s"])
                points.append(TrajPoint(float(rec["x"]), float(rec["y"]), state))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid point at index {i}: {exc}") from exc
        return Trajectory(tuple(points), canvas_side=side)
    if "strokes" in obj:
        strokes = obj["strokes"]
        if not isinstance(strokes, list) or not strokes:
            raise ValueError("strokes form must contain a list of at least one stroke")
        points = []
        for si, stroke in enumerate(strokes):
            if not isinstance(stroke, list) or not stroke:
                raise ValueError(f"stroke {si} must be a non-empty list of points")
            for j, xy in enumerate(stroke):
                if not isinstance(xy, (list, tuple)) or len(xy) != 2:
                    raise ValueError(f"stroke {si} point {j} must be an [x, y] pair")
                state = PenState.UP if j == len(stroke) - 1 else PenState.DOWN
                try:
                    points.append(TrajPoint(float(xy[0]), float(xy[1]), state))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"invalid stroke {si} point {j}: {exc}") from exc
        last = points[-1]
        points.append(TrajPoint(last.x, last.y, PenState.EOS))
        return Trajectory(tuple(points), canvas_side=side)
    raise ValueError("trajectory object needs a 'points' or 'strokes' key")


@st.composite
def _mostly_valid(draw):
    """The points or strokes object of a random trajectory, with at most one
    field (a coordinate, a state entry, a state vector or a canvas entry)
    replaced by a scalar."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    traj = random_traj(rng, n_strokes=(1, 4), n_points=(1, 6), eos=draw(st.booleans()))
    if draw(st.booleans()):
        obj = trajectory_to_points_obj(traj)
        fields = [(rec, key) for rec in obj["points"] for key in ("x", "y", "s")]
        fields += [(rec["s"], k) for rec in obj["points"] for k in range(3)]
    else:
        obj = trajectory_to_strokes_obj(traj)
        fields = [(xy, k) for stroke in obj["strokes"] for xy in stroke for k in range(2)]
    fields += [(obj["canvas"], 0), (obj["canvas"], 1)]
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(fields))
        container[key] = draw(_scalars)
    return obj


def _parse_outcome(parse, obj):
    try:
        traj = parse(obj)
    except Exception as exc:  # noqa: BLE001 - the outcome includes the error type
        return type(exc).__name__, str(exc)
    return traj.xy.tobytes(), traj.state.tobytes(), traj.canvas_side


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_json_like | _trajectory_like | _mostly_valid())
def test_parser_matches_reference(obj):
    assert _parse_outcome(trajectory_from_obj, obj) == \
        _parse_outcome(trajectory_from_obj_reference, obj)


def _rec(x=0.0, y=0.0, s=(1, 0, 0)):
    return {"x": x, "y": y, "s": list(s)}


@pytest.mark.parametrize("obj", [
    {"points": [_rec("1.5", True), _rec(False, 2, (0.0, 1, 0))]},
    {"points": [_rec(s=(0, 1, 0)), _rec(s=(0, 0, 1))], "canvas": [True, 3.9]},
    {"points": [_rec(math.nan, 1.0), _rec(s=(2, 0, 0))]},
    {"points": [_rec(1.0, "-inf")]},
    {"points": [_rec(s=(1, 1, 0)), _rec(math.inf, 0.0)]},
    {"points": [_rec(), {"x": 1, "s": [1, 0, 0]}, _rec(math.nan)]},
    {"points": [_rec(s=(0, 0, 1)), _rec()]},
    {"points": [_rec(s=(0, 0, 1)), _rec(math.nan)]},
    {"points": [_rec()], "canvas": [0, 0]},
    {"points": []},
    {"strokes": [[[0, 0], ["2", True]], [[math.inf, 1], [None, 1]]]},
    {"strokes": [[[0, 0], [1, "nan"]]]},
    {"strokes": [[[0, 0]], [[1, 1], (2, 2)]], "canvas": [-4, -5]},
    {"strokes": [[[0, 0]], [], [[1, 1, 1]]]},
])
def test_parser_matches_reference_on_edge_cases(obj):
    assert _parse_outcome(trajectory_from_obj, obj) == \
        _parse_outcome(trajectory_from_obj_reference, obj)


@pytest.mark.parametrize("obj", [
    {"points": [_rec(), _rec(math.inf, 0.0), _rec(s=(1, 1, 0))]},
    {"points": [_rec(), _rec(0.0, "nan"), {"x": 1, "s": [1, 0, 0]}]},
    {"points": [_rec(math.nan), _rec(s="abc"), {"y": 1, "s": [1, 0, 0]}]},
    {"points": [_rec(math.nan), _rec(s=[[1], 0, 0]), _rec(None)]},
    {"points": [_rec(1.0, -math.inf), [1, 0, 0], _rec()]},
    {"points": [_rec(s=(0, 0, 0)), _rec(math.nan)]},
    {"points": [_rec(math.inf, s=(2, 0, 0))]},
    {"points": [_rec(math.inf, None)]},
    {"strokes": [[[0, 0], [math.inf, 1]], [[1, None]]]},
    {"strokes": [[[0, 0]], [[1, 1], ["nan", 0]], []]},
    {"strokes": [[[0, 0], [1, "-inf"], [1, 2, 3]]]},
    {"strokes": [[[0, 0], [1, "-inf"]], "not a stroke"]},
])
def test_parser_reports_an_earlier_non_finite_row_first(obj):
    """A non-finite coordinate before a bad state, a missing key or a bad
    stroke is the error reported, as in the point-by-point reference."""
    got = _parse_outcome(trajectory_from_obj, obj)
    assert got == _parse_outcome(trajectory_from_obj_reference, obj)
    assert got[0] == "ValueError"


def _dump_reference(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


@pytest.mark.parametrize("form", ["points", "strokes"])
def test_save_writes_the_bytes_of_json_dump(tmp_path, rng, form):
    """`save_trajectory` encodes in one piece; its bytes are what the chunked
    `json.dump` writes, extreme and signed-zero floats included."""
    extremes = [[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308],
                [0.1, 1e-7], [123456789.125, -0.0]]
    trajs = [Trajectory.from_arrays(extremes, [0, 1, 0, 2], 64),
             Trajectory.from_arrays(extremes, [0, 0, 1, 1], 7),
             random_traj(rng, eos=True), random_traj(rng, eos=False)]
    to_obj = trajectory_to_points_obj if form == "points" else trajectory_to_strokes_obj
    for traj in trajs:
        save_trajectory(traj, tmp_path / "got.json", form=form)
        _dump_reference(to_obj(traj), tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        back = load_trajectory(tmp_path / "got.json")
        assert back.drawn_xy().tobytes() == traj.drawn_xy().tobytes()


def test_save_refuses_an_unknown_form_before_writing(tmp_path, rng):
    with pytest.raises(ValueError) as exc:
        save_trajectory(random_traj(rng), tmp_path / "t.json", form="svg")
    assert str(exc.value) == "unknown trajectory form 'svg'"
    assert not (tmp_path / "t.json").exists()


def test_save_refuses_a_strokes_file_with_no_strokes(tmp_path):
    eos_only = Trajectory.from_arrays([[3.0, 4.0]], [2], 64)
    with pytest.raises(ValueError, match="strokes form needs at least one drawn point"):
        save_trajectory(eos_only, tmp_path / "s.json", form="strokes")
    assert not (tmp_path / "s.json").exists()
    save_trajectory(eos_only, tmp_path / "p.json")
    assert load_trajectory(tmp_path / "p.json").xy.tolist() == [[3.0, 4.0]]


def test_file_io_builds_no_points(tmp_path, monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("file I/O built a TrajPoint")
    monkeypatch.setattr(traj_core, "TrajPoint", no_points)
    canvas = {"canvas": [32, 32]}
    (tmp_path / "p.json").write_text(json.dumps({**canvas, "points": [
        {"x": 1, "y": 2, "s": [1, 0, 0]}, {"x": 3.5, "y": 4, "s": [0, 1, 0]}]}))
    (tmp_path / "s.json").write_text(json.dumps({**canvas, "strokes": [[[1, 2], [3.5, 4]]]}))
    for name, state in (("p", [0, 1]), ("s", [0, 1, 2])):
        traj = load_trajectory(tmp_path / f"{name}.json")
        assert traj.xy.tolist() == [[1.0, 2.0], [3.5, 4.0], [3.5, 4.0]][:len(state)]
        assert traj.state.tolist() == state and traj.canvas_side == 32
    save_trajectory(traj, tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text()) == {**canvas, "points": [
        {"x": 1.0, "y": 2.0, "s": [1, 0, 0]}, {"x": 3.5, "y": 4.0, "s": [0, 1, 0]},
        {"x": 3.5, "y": 4.0, "s": [0, 0, 1]}]}


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_trajectory(path)


def test_load_reports_bad_point_index(tmp_path):
    path = tmp_path / "bad.json"
    obj = {"canvas": [64, 64], "points": [
        {"x": 0, "y": 0, "s": [1, 0, 0]}, {"x": 1, "y": 1, "s": [9, 9, 9]}]}
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="index 1"):
        load_trajectory(path)


# --- batch planner -------------------------------------------------------------

def _greedy_chunks(shapes, cells):
    """The sort-and-grow rule `dtw_many` once ran itself: shapes sorted by
    (h, w), each chunk grown while count x h x largest w stays within `cells`
    and within twice the sum of its shapes' own h x w (at most half padding)."""
    jobs = sorted(range(len(shapes)), key=lambda i: shapes[i])
    chunks, start = [], 0
    while start < len(jobs):
        stop, w_max = start + 1, shapes[jobs[start]][1]
        used = shapes[jobs[start]][0] * w_max
        while stop < len(jobs):
            h, w = shapes[jobs[stop]]
            size = (stop + 1 - start) * h * max(w_max, w)
            if size > cells or size > 2 * (used + h * w):
                break
            stop, w_max, used = stop + 1, max(w_max, w), used + h * w
        chunks.append(jobs[start:stop])
        start = stop
    return chunks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 40),
                          st.integers(1, 40)), max_size=40),
       st.integers(1, 6000))
@example([(0, 10, 10), (0, 10, 10), (1, 10, 10)], 200)  # a stack that fills the cap exactly
@example([(0, 2, 2), (0, 2, 2), (0, 2, 10)], 1000)  # padding cuts first: 3 x 20 > 2 x 28
def test_stacks_hold_one_key_within_the_cell_cap(items, cells):
    """Every index once, one key per stack, the stack's largest shape, and a
    stack of more than one item within the cap; with one key the cuts are
    the old greedy chunks, and with each shape its own key they are the old
    per-shape stacks: input order, cap // (h x w) at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traj_core, "_STACK_CELLS", cells)
        stacks = list(traj_core._stacks((i, key, (h, w)) for i, (key, h, w) in enumerate(items)))
        shapes = [(h, w) for _, h, w in items]
        one_key = [stack for _, stack in traj_core._stacks(
            (i, None, shape) for i, shape in enumerate(shapes))]
        by_shape = [stack for _, stack in traj_core._stacks(
            (i, shape, shape) for i, shape in enumerate(shapes))]
    assert sorted(i for _, stack in stacks for i in stack) == list(range(len(items)))
    for (h, w), stack in stacks:
        assert len({items[i][0] for i in stack}) == 1
        assert (h, w) == (max(items[i][1] for i in stack), max(items[i][2] for i in stack))
        assert len(stack) == 1 or len(stack) * h * w <= cells
    assert one_key == _greedy_chunks(shapes, cells)
    per_shape: dict = {}
    for i, shape in enumerate(shapes):
        per_shape.setdefault(shape, []).append(i)
    assert sorted(by_shape) == sorted(
        members[start:start + max(1, cells // (h * w))]
        for (h, w), members in per_shape.items()
        for start in range(0, len(members), max(1, cells // (h * w))))


def test_stacks_cut_before_padding_fills_half_a_stack():
    """Far below the cap, a third table five times wider is cut off: with it
    the stack would hold 3 x 2 x 10 = 60 cells, of which its items use 28.
    Two items always share a stack, and equal shapes never pad."""
    def cuts(shapes):
        return [(shape, stack) for shape, stack in traj_core._stacks(
            (i, None, shape) for i, shape in enumerate(shapes))]

    assert cuts([(2, 2), (2, 10), (2, 2)]) == [((2, 2), [0, 2]), ((2, 10), [1])]
    assert cuts([(2, 2), (2, 10)]) == [((2, 10), [0, 1])]
    assert cuts([(2, 10)] * 5) == [((2, 10), [0, 1, 2, 3, 4])]

"""Data model, stroke segmentation, preprocessing, and file-format tests."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import (PenState, Stroke, TrajPoint, Trajectory, dedupe_points,
                      downsample_half, load_trajectory, normalize_to_canvas,
                      resample, save_trajectory, strokes_of)
from trajeval.traj_core import (pixel_of, trajectory_from_obj,
                                trajectory_to_points_obj,
                                trajectory_to_strokes_obj)

from conftest import random_traj, traj_from_strokes


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


def test_stroke_rejects_interior_pen_up():
    up = TrajPoint(0, 0, PenState.UP)
    down = TrajPoint(1, 1, PenState.DOWN)
    with pytest.raises(ValueError):
        Stroke((up, down))


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


def test_resample_identity_factor_is_noop(rng):
    traj = random_traj(rng)
    out = resample(traj, 1.0)
    assert [(p.x, p.y, p.state) for p in out.points] == \
           [(p.x, p.y, p.state) for p in traj.points]


def test_resample_rejects_non_positive_factor(rng):
    with pytest.raises(ValueError):
        resample(random_traj(rng), 0.0)


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
])
def test_rejects_malformed_objects(obj):
    with pytest.raises(ValueError):
        trajectory_from_obj(obj)


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

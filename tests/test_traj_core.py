"""Data model, stroke segmentation, preprocessing, and file-format tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import traj_core
from trajeval import (PenState, TrajPoint, Trajectory, dedupe_points,
                      downsample_half, load_trajectory, normalize_to_canvas,
                      resample, save_trajectory, stroke_bounds, strokes_of)
from trajeval.traj_core import (_canvas_side_of, pixel_of, trajectory_from_obj,
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

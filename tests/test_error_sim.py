"""Error-simulation tests: determinism, count arithmetic, and geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import (ERROR_KINDS, Trajectory, change_sample_rate, delete_strokes, drift_points,
                      drift_strokes, insert_strokes, make_synthetic_corpus, perturb,
                      perturb_row, rasterize, resample, stroke_bounds, strokes_of,
                      widen_strokes)
from trajeval.bench import DEFAULT_GRIDS, _check_run_inputs, derive_seed
from trajeval.raster import dilate3x3
from trajeval.traj_core import join_strokes

from conftest import random_traj, traj_from_strokes, trajectories


def coords(traj):
    return [(p.x, p.y) for p in traj.drawn_points()]


# --- determinism -------------------------------------------------------------

@pytest.mark.parametrize("apply", [
    lambda t, s: insert_strokes(t, 2, s),
    lambda t, s: delete_strokes(t, 1, s),
    lambda t, s: drift_points(t, 1.5, s),
    lambda t, s: drift_strokes(t, 1.5, s),
])
def test_same_seed_is_bit_identical(rng, apply):
    traj = random_traj(rng, n_strokes=(3, 4))
    a, b = apply(traj, 99), apply(traj, 99)
    assert coords(a) == coords(b)
    assert [p.state for p in a.points] == [p.state for p in b.points]


def test_different_seeds_differ(rng):
    traj = random_traj(rng, n_strokes=(3, 4))
    assert coords(drift_points(traj, 2.0, 1)) != coords(drift_points(traj, 2.0, 2))


def test_no_global_rng_state_is_touched(rng):
    traj = random_traj(rng)
    np.random.seed(7)
    before = np.random.get_state()[1][:5].tolist()
    drift_points(traj, 1.0, 3)
    insert_strokes(traj, 1, 3)
    np.random.seed(7)
    assert np.random.get_state()[1][:5].tolist() == before


# --- stroke insertion / deletion ---------------------------------------------

def test_insert_adds_exactly_k_strokes(rng):
    traj = random_traj(rng, n_strokes=(2, 3))
    base = len(strokes_of(traj))
    for k in (1, 2, 5):
        assert len(strokes_of(insert_strokes(traj, k, 0))) == base + k


def test_inserted_strokes_stay_in_canvas(rng):
    traj = random_traj(rng, n_strokes=(2, 3))
    out = insert_strokes(traj, 5, 11)
    for p in out.drawn_points():
        assert 0 <= p.x <= 63 and 0 <= p.y <= 63


def test_inserted_strokes_are_translated_copies(rng):
    traj = random_traj(rng, n_strokes=(1, 1), n_points=(4, 4))
    out = insert_strokes(traj, 1, 5)
    shapes = []
    for st in strokes_of(out):
        pts = [(p.x, p.y) for p in st.points]
        shapes.append([c for x, y in pts
                       for c in (x - pts[0][0], y - pts[0][1])])
    assert shapes[0] == pytest.approx(shapes[1])


def test_delete_removes_exactly_k_and_keeps_order(rng):
    traj = random_traj(rng, n_strokes=(5, 5))
    out = delete_strokes(traj, 2, 7)
    remaining = strokes_of(out)
    assert len(remaining) == 3
    originals = [coords_of_stroke(s) for s in strokes_of(traj)]
    idx = [originals.index(coords_of_stroke(s)) for s in remaining]
    assert idx == sorted(idx)


def coords_of_stroke(st):
    return tuple((p.x, p.y) for p in st.points)


def test_delete_refuses_to_empty_the_trajectory(rng):
    traj = random_traj(rng, n_strokes=(2, 2))
    with pytest.raises(ValueError, match="at least one must remain"):
        delete_strokes(traj, 2, 0)


# --- point / stroke drift ----------------------------------------------------

def test_point_drift_moves_by_exactly_d_away_from_borders():
    traj = traj_from_strokes([[(20, 20), (30, 30), (40, 25)]])
    out = drift_points(traj, 3.0, seed=4)
    for before, after in zip(traj.drawn_points(), out.drawn_points()):
        dist = math.hypot(after.x - before.x, after.y - before.y)
        assert dist == pytest.approx(3.0)


def test_point_drift_clamps_to_canvas():
    traj = traj_from_strokes([[(0, 0), (63, 63)]])
    out = drift_points(traj, 10.0, seed=1)
    for p in out.drawn_points():
        assert 0 <= p.x <= 63 and 0 <= p.y <= 63


def test_point_drift_directions_are_magnitude_independent():
    """Same seed yields the same drift angles, so offsets scale linearly."""
    traj = traj_from_strokes([[(20, 20), (30, 30), (40, 25), (25, 35)]])
    small = drift_points(traj, 1.0, seed=8)
    large = drift_points(traj, 2.0, seed=8)
    for base, s, l in zip(traj.drawn_points(), small.drawn_points(),
                          large.drawn_points()):
        assert l.x - base.x == pytest.approx(2 * (s.x - base.x))
        assert l.y - base.y == pytest.approx(2 * (s.y - base.y))


def test_point_drift_preserves_states(rng):
    traj = random_traj(rng, n_strokes=(2, 3))
    out = drift_points(traj, 2.0, seed=0)
    assert [p.state for p in out.points] == [p.state for p in traj.points]


def test_stroke_drift_is_rigid_per_stroke():
    traj = traj_from_strokes([[(20, 20), (25, 22), (30, 20)],
                              [(40, 40), (42, 45)]])
    out = drift_strokes(traj, 2.0, seed=3)
    for before, after in zip(strokes_of(traj), strokes_of(out)):
        ox = after.points[0].x - before.points[0].x
        oy = after.points[0].y - before.points[0].y
        assert math.hypot(ox, oy) == pytest.approx(2.0)
        for b, a in zip(before.points, after.points):
            assert a.x - b.x == pytest.approx(ox)
            assert a.y - b.y == pytest.approx(oy)


def test_stroke_drift_keeps_bbox_in_canvas():
    traj = traj_from_strokes([[(0, 0), (5, 5)], [(60, 60), (63, 63)]])
    out = drift_strokes(traj, 8.0, seed=6)
    for p in out.drawn_points():
        assert 0 <= p.x <= 63 and 0 <= p.y <= 63


def test_drift_rejects_non_positive_distance(rng):
    traj = random_traj(rng)
    for fn in (drift_points, drift_strokes):
        with pytest.raises(ValueError):
            fn(traj, 0.0, seed=0)


# --- width / sample-rate transforms ------------------------------------------

def test_widen_strokes_matches_manual_dilation(rng):
    traj = random_traj(rng)
    for k in (0, 1, 3):
        img = widen_strokes(traj, k)
        expected = dilate3x3(rasterize(traj), k)
        assert ((np.asarray(img.pixels) == 0) == expected.bits).all()
    with pytest.raises(ValueError):
        widen_strokes(traj, -1)


def test_change_sample_rate_delegates_to_resample(rng):
    traj = random_traj(rng)
    for factor in (0.5, 2.0):
        assert coords(change_sample_rate(traj, factor)) == \
            coords(resample(traj, factor))


# --- perturb dispatch --------------------------------------------------------

def test_perturb_dispatches_each_kind(rng):
    traj = random_traj(rng, n_strokes=(3, 4))
    assert coords(perturb(traj, "stroke-insert", 2, 5)) == \
        coords(insert_strokes(traj, 2, 5))
    assert coords(perturb(traj, "stroke-delete", 1, 5)) == \
        coords(delete_strokes(traj, 1, 5))
    assert coords(perturb(traj, "point-drift", 1.5, 5)) == \
        coords(drift_points(traj, 1.5, 5))
    assert coords(perturb(traj, "stroke-drift", 1.5, 5)) == \
        coords(drift_strokes(traj, 1.5, 5))
    with pytest.raises(ValueError, match="unknown error kind"):
        perturb(traj, "nope", 1, 5)


def test_error_kind_params_validate(rng):
    traj = random_traj(rng, n_strokes=(3, 4))
    for kind, magnitude in (("stroke-insert", 0), ("stroke-delete", -1),
                            ("point-drift", 0.0), ("stroke-drift", -2.0)):
        with pytest.raises(ValueError):
            perturb(traj, kind, magnitude, 5)


# --- one magnitude rule for generators and runners ----------------------------

_GLYPH = make_synthetic_corpus(1, seed=0)[0]


def _generate(kind, traj, value):
    if kind == "stroke-width":
        return widen_strokes(traj, value)
    if kind == "sample-rate":
        return change_sample_rate(traj, value)
    return perturb(traj, kind, value, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DEFAULT_GRIDS)),
       st.floats(-10, 10) | st.integers(-10, 10)
       | st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400]))
def test_generators_reject_exactly_the_magnitudes_the_runners_reject(kind, value):
    try:
        _check_run_inputs([_GLYPH], kind, (value,), 10)
        runner_rejects = False
    except ValueError:
        runner_rejects = True
    try:
        _generate(kind, _GLYPH, value)
    except ValueError as exc:
        if runner_rejects:
            assert str(exc).startswith(f"{kind} ")
        else:  # the one rejection a glyph, not the grid, decides
            assert kind == "stroke-delete" and value >= len(strokes_of(_GLYPH))
    else:
        assert not runner_rejects


@pytest.mark.parametrize("call,message", [
    (lambda t: perturb(t, "stroke-insert", 1.5, 0),
     "stroke-insert count must be a whole number of at least 1, got 1.5"),
    (lambda t: insert_strokes(t, 1.5, 0),
     "stroke-insert count must be a whole number of at least 1, got 1.5"),
    (lambda t: delete_strokes(t, 1.5, 0),
     "stroke-delete count must be a whole number of at least 1, got 1.5"),
    (lambda t: widen_strokes(t, 0.5),
     "stroke-width dilation must be a whole number of at least 0, got 0.5"),
    (lambda t: widen_strokes(t, math.nan), "stroke-width magnitude must be finite, got nan"),
    (lambda t: perturb(t, "stroke-insert", math.inf, 0),
     "stroke-insert magnitude must be finite, got inf"),
    (lambda t: drift_points(t, math.inf, 0), "point-drift magnitude must be finite, got inf"),
    (lambda t: perturb(t, "stroke-insert", 10**400, 0),
     f"stroke-insert magnitude must be finite, got {10**400}"),
    (lambda t: change_sample_rate(t, -1), "sample-rate factor must be positive, got -1"),
])
def test_generators_name_the_kind_of_a_rejected_magnitude(call, message):
    with pytest.raises(ValueError) as exc:
        call(_GLYPH)
    assert str(exc.value) == message


# --- one set of draws per glyph row --------------------------------------------

def _rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _strokes(traj):
    return [traj.xy[a:b] for a, b in stroke_bounds(traj)]


def insert_reference(traj, k, seed):
    """The per-magnitude generators as they were before `perturb_row`, kept
    as the byte references of its rows (magnitudes already checked)."""
    strokes = _strokes(traj)
    if not strokes:
        raise ValueError("trajectory has no strokes to copy")
    side, rng, out = traj.canvas_side, _rng_of(seed), list(strokes)
    for _ in range(int(k)):
        src = strokes[int(rng.integers(len(strokes)))]
        (min_x, min_y), (max_x, max_y) = src.min(axis=0).tolist(), src.max(axis=0).tolist()
        new_min_x = rng.uniform(0.0, max(side - 1 - (max_x - min_x), 0.0))
        new_min_y = rng.uniform(0.0, max(side - 1 - (max_y - min_y), 0.0))
        moved = src + (new_min_x - min_x, new_min_y - min_y)
        pos = int(rng.integers(len(out) + 1))
        out.insert(pos, moved)
    return join_strokes(out, traj)


def delete_reference(traj, k, seed):
    k, strokes = int(k), _strokes(traj)
    if k >= len(strokes):
        raise ValueError(
            f"cannot delete {k} of {len(strokes)} strokes: at least one must remain")
    order = _rng_of(seed).permutation(len(strokes))
    doomed = set(int(i) for i in order[:k])
    return join_strokes([s for i, s in enumerate(strokes) if i not in doomed], traj)


def point_drift_reference(traj, d, seed, fraction=1.0):
    rng = _rng_of(seed)
    n_drawn = len(traj.drawn_xy())
    m = math.ceil(fraction * n_drawn)
    chosen = rng.permutation(n_drawn)[:m]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=m).tolist()
    step = d * np.array([(math.cos(t), math.sin(t)) for t in angles]).reshape(-1, 2)
    xy = traj.xy.copy()
    xy[chosen] = np.minimum(np.maximum(xy[chosen] + step, 0.0), traj.canvas_side - 1)
    return Trajectory.from_arrays(xy, traj.state, traj.canvas_side)


def stroke_drift_reference(traj, d, seed):
    rng, hi, out = _rng_of(seed), traj.canvas_side - 1, []
    for s in _strokes(traj):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ox, oy = d * math.cos(theta), d * math.sin(theta)
        (min_x, min_y), (max_x, max_y) = s.min(axis=0).tolist(), s.max(axis=0).tolist()
        ox = min(max(ox, -min_x), hi - max_x)
        oy = min(max(oy, -min_y), hi - max_y)
        out.append(s + (ox, oy))
    return join_strokes(out, traj)


REFERENCES = {"stroke-insert": insert_reference, "stroke-delete": delete_reference,
              "point-drift": point_drift_reference, "stroke-drift": stroke_drift_reference}
_COUNTS = st.integers(1, 7) | st.sampled_from([2.0, 6.0])
_DISTANCES = st.floats(0.01, 12.0) | st.sampled_from([1, 3, 0.5])


def _bytes_or_error(value):
    if isinstance(value, ValueError):
        return "ValueError", str(value)
    return value.xy.tobytes(), value.state.tobytes(), value.canvas_side


def _outcome(call):
    try:
        return _bytes_or_error(call())
    except ValueError as exc:
        return _bytes_or_error(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trajectories(max_strokes=6, coord=st.sampled_from([0.0, 63.0]) | st.floats(0.0, 63.0)),
       st.sampled_from(sorted(REFERENCES)), st.data(), st.integers(0, 2 ** 64 - 1))
def test_perturb_row_matches_the_per_magnitude_references(traj, kind, data, seed):
    """Grids may be unsorted and hold repeats, and counts above a glyph's
    strokes; the single-magnitude generators are rows of one."""
    counts = kind in ("stroke-insert", "stroke-delete")
    grid = data.draw(st.lists(_COUNTS if counts else _DISTANCES, min_size=1, max_size=6))
    row = perturb_row(traj, kind, grid, seed)
    assert len(row) == len(grid)
    for magnitude, got in zip(grid, row):
        want = _outcome(lambda: REFERENCES[kind](traj, magnitude, seed))
        assert _bytes_or_error(got) == want
        assert _outcome(lambda: perturb(traj, kind, magnitude, seed)) == want
    if kind == "point-drift":
        assert _outcome(lambda: drift_points(traj, grid[0], seed)) == \
            _outcome(lambda: point_drift_reference(traj, grid[0], seed))


@pytest.mark.parametrize("kind", sorted(ERROR_KINDS))
def test_perturb_row_of_an_empty_grid_is_empty(kind):
    traj = make_synthetic_corpus(1, seed=2)[0]
    assert perturb_row(traj, kind, (), 7) == []


def test_row_predictions_pass_every_check():
    """The rows build their predictions without `from_arrays`' checks; each one
    passes them, with equal columns, read-only float64 xy and int8 states."""
    corpus = make_synthetic_corpus(10, seed=8) + make_synthetic_corpus(
        10, seed=9, stroke_range=(1, 4), points_range=(1, 6))
    built = refused = 0
    for i, traj in enumerate(corpus):
        for kind in ERROR_KINDS:
            for pred in perturb_row(traj, kind, DEFAULT_GRIDS[kind], derive_seed(8, i)):
                if isinstance(pred, ValueError):
                    assert kind == "stroke-delete" and "at least one must remain" in str(pred)
                    refused += 1
                    continue
                checked = Trajectory.from_arrays(pred.xy, pred.state, pred.canvas_side)
                assert np.array_equal(checked.xy, pred.xy)
                assert np.array_equal(checked.state, pred.state)
                assert (pred.xy.dtype, pred.state.dtype) == (np.float64, np.int8)
                assert not pred.xy.flags.writeable and not pred.state.flags.writeable
                built += 1
    assert built > 450 and refused > 10


@pytest.mark.parametrize("kind", ["stroke-insert", "stroke-drift"])
def test_a_stroke_wider_than_the_float_range_is_refused(kind):
    """Moving a stroke that spans more than the float range overflows; the
    unchecked row builders still refuse the non-finite row."""
    traj = traj_from_strokes([[(-1e308, 5.0), (1e308, 5.0)]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite coordinates"):
        perturb(traj, kind, 1, 0)


@pytest.mark.parametrize("kind, strokes, magnitude", [
    ("stroke-insert", [[(-1e308, 5.0), (1e308, 5.0)]], 1),
    ("stroke-drift", [[(-1e308, 5.0), (1e308, 5.0)]], 1),
    ("point-drift", [[(1e308, 5.0), (1.5e308, 5.0)]], 1e308),
])
def test_an_overflowing_move_warns_nothing(kind, strokes, magnitude):
    """With warnings as errors, a move past the float range still ends as it
    does without them: a stroke move is refused, a point drift is clamped."""
    traj = traj_from_strokes(strokes)
    if kind == "point-drift":
        drawn = perturb(traj, kind, magnitude, 0).drawn_xy()
        assert ((drawn >= 0) & (drawn <= traj.canvas_side - 1)).all()
    else:
        with pytest.raises(ValueError, match="non-finite coordinates"):
            perturb(traj, kind, magnitude, 0)


def test_perturb_row_checks_every_magnitude_before_drawing(rng):
    traj = random_traj(rng, n_strokes=(3, 4))
    with pytest.raises(ValueError,
                       match="stroke-delete count must be a whole number of at least 1, got 1.5"):
        perturb_row(traj, "stroke-delete", (9, 1, 1.5), 0)
    with pytest.raises(ValueError, match="unknown error kind"):
        perturb_row(traj, "nope", (1,), 0)
    row = perturb_row(traj, "stroke-delete", (1, 9), 0)
    assert str(row[1]) == f"cannot delete 9 of {len(strokes_of(traj))} strokes: " \
                          "at least one must remain"
    # a one-pass grid is read for the checks and again for the draws
    assert len(perturb_row(traj, "point-drift", iter([1.0, 2.0]), 0)) == 2

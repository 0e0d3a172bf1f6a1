"""Error-simulation tests: determinism, count arithmetic, and geometry."""

import math

import numpy as np
import pytest

from trajeval import (change_sample_rate, delete_strokes, drift_points,
                      drift_strokes, insert_strokes, perturb, rasterize,
                      resample, strokes_of, widen_strokes)
from trajeval.raster import dilate3x3

from conftest import random_traj, traj_from_strokes


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


def test_point_drift_fraction_limits_moved_points():
    traj = traj_from_strokes([[(20 + i, 30) for i in range(10)]])
    out = drift_points(traj, 2.0, seed=2, fraction=0.5)
    moved = sum(1 for b, a in zip(traj.drawn_points(), out.drawn_points())
                if (b.x, b.y) != (a.x, a.y))
    assert moved == 5
    with pytest.raises(ValueError):
        drift_points(traj, 2.0, seed=2, fraction=0.0)


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

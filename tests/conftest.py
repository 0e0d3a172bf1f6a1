"""Shared builders for trajectory test fixtures."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from trajeval import PenState, TrajPoint, Trajectory
from trajeval.traj_core import DOWN, EOS, UP


def traj_from_strokes(strokes, side=64, eos=True):
    """Build a trajectory from [[(x, y), ...], ...] coordinate lists."""
    points = []
    for stroke in strokes:
        for j, (x, y) in enumerate(stroke):
            state = PenState.UP if j == len(stroke) - 1 else PenState.DOWN
            points.append(TrajPoint(float(x), float(y), state))
    if eos:
        last = points[-1]
        points.append(TrajPoint(last.x, last.y, PenState.EOS))
    return Trajectory(tuple(points), canvas_side=side)


def random_traj(rng, n_strokes=(1, 3), n_points=(2, 6), side=64, eos=True):
    """Random multi-stroke trajectory with coordinates strictly inside canvas."""
    strokes = []
    for _ in range(int(rng.integers(n_strokes[0], n_strokes[1] + 1))):
        m = int(rng.integers(n_points[0], n_points[1] + 1))
        xs = rng.uniform(0.0, side - 1.0, size=m)
        ys = rng.uniform(0.0, side - 1.0, size=m)
        strokes.append(list(zip(xs.tolist(), ys.tolist())))
    return traj_from_strokes(strokes, side=side, eos=eos)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


def euclid(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


@st.composite
def trajectories(draw, max_strokes=5, max_points=9, coord=st.floats(0.0, 63.0)):
    """Trajectories as columns: 1-point strokes, a last stroke without its
    pen-up, no EOS marker, and no stroke at all (a lone EOS row) all occur."""
    lens = draw(st.lists(st.integers(1, max_points), max_size=max_strokes))
    eos = draw(st.booleans()) or not lens
    state = [s for n in lens for s in [DOWN] * (n - 1) + [UP]]
    if state and draw(st.booleans()):
        state[-1] = DOWN  # the last stroke ends without a pen-up
    state += [EOS] * eos
    xy = draw(st.lists(st.tuples(coord, coord), min_size=len(state), max_size=len(state)))
    return Trajectory.from_arrays(xy, state, 64)

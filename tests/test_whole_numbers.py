"""One whole-number rule (`traj_core._whole`) at every entry point that takes a
count, a width, a canvas side, a seed or a dilation bound: the same wording
for every value it refuses, no random draw before it, and a whole float
accepted as the int it names."""

import math
import warnings

import numpy as np
import pytest

from trajeval import (BinaryMask, Trajectory, aiou, delete_strokes, dilate3x3, insert_strokes,
                      invariance_run, make_synthetic_corpus, normalize_to_canvas, perturb,
                      perturb_row, rasterize, rasterize_many, reports_to_csv, score_pairs,
                      sensitivity_run, widen_strokes)
from trajeval import raster
from trajeval.raster import GrayImage
from trajeval.traj_core import DOWN, UP, _whole

from conftest import traj_from_strokes

# five strokes inside a 3 x 3 corner, so the glyph also renders on a side-3 canvas
GLYPH = traj_from_strokes([[(0, 0), (1, 1)], [(2, 0), (2, 2)], [(0, 2), (1, 2)],
                           [(1, 0), (0, 1)], [(2, 1), (1, 1)]])
MASK, FLIPPED = BinaryMask(np.eye(5, dtype=bool)), BinaryMask(np.eye(5, dtype=bool)[::-1])
CORPUS = make_synthetic_corpus(2, seed=1)

# (entry point, call of the value, name, least whole value, the message of a
# finiteness check that refuses NaN and +-inf first, or None).  A runner's
# reports are compared as CSV: their grid echoes the value as it was given.
ENTRY_POINTS = [
    ("from_arrays canvas side",
     lambda v: Trajectory.from_arrays([(0.0, 0.0), (1.0, 1.0)], [DOWN, UP], v),
     "canvas side", 1, None),
    ("rasterize side", lambda v: rasterize(GLYPH, v), "canvas side", 1, None),
    ("rasterize_many side", lambda v: rasterize_many([GLYPH, GLYPH], v), "canvas side", 1, None),
    ("aiou k_max", lambda v: aiou(MASK, FLIPPED, v), "k_max", 0, None),
    ("score_pairs k_max", lambda v: score_pairs([(GLYPH, CORPUS[0])], ("aiou",), v),
     "k_max", 0, None),
    ("sensitivity_run k_max",
     lambda v: reports_to_csv(sensitivity_run(CORPUS, "point-drift", (1,), ("aiou",), k_max=v)),
     "k_max", 0, None),
    ("invariance_run k_max",
     lambda v: reports_to_csv(invariance_run(CORPUS, "stroke-width", (0, 1), k_max=v)),
     "k_max", 0, None),
    ("dilate3x3 count", lambda v: dilate3x3(MASK, v), "dilation count", 0, None),
    ("insert_strokes count", lambda v: insert_strokes(GLYPH, v, 0), "stroke-insert count", 1,
     "stroke-insert magnitude must be finite, got {}"),
    ("delete_strokes count", lambda v: delete_strokes(GLYPH, v, 0), "stroke-delete count", 1,
     "stroke-delete magnitude must be finite, got {}"),
    ("sensitivity_run count grid",
     lambda v: reports_to_csv(sensitivity_run(CORPUS, "stroke-insert", (v,), ("ldtw",))),
     "stroke-insert count", 1, "magnitude grid must be finite, got {}"),
    ("widen_strokes width", lambda v: widen_strokes(GLYPH, v), "stroke-width dilation", 0,
     "stroke-width magnitude must be finite, got {}"),
    ("invariance_run width grid",
     lambda v: reports_to_csv(invariance_run(CORPUS, "stroke-width", (v,))),
     "stroke-width dilation", 0, "magnitude grid must be finite, got {}"),
    ("corpus size", lambda v: make_synthetic_corpus(v), "corpus size", 1, None),
    ("corpus seed", lambda v: make_synthetic_corpus(2, seed=v), "seed", 0, None),
    ("perturb seed", lambda v: perturb(GLYPH, "point-drift", 1.5, v), "seed", 0, None),
    ("perturb_row seed", lambda v: perturb_row(GLYPH, "stroke-delete", (1, 2), v), "seed", 0,
     None),
    ("corpus stroke_range low end", lambda v: make_synthetic_corpus(2, stroke_range=(v, 3)),
     "stroke_range low end", 1, None),
    ("corpus stroke_range high end", lambda v: make_synthetic_corpus(2, stroke_range=(3, v)),
     "stroke_range high end", 3, None),
    ("corpus points_range low end", lambda v: make_synthetic_corpus(2, points_range=(v, 3)),
     "points_range low end", 1, None),
    ("corpus points_range high end", lambda v: make_synthetic_corpus(2, points_range=(3, v)),
     "points_range high end", 3, None),
]


def _refuse_draws(monkeypatch):
    """Make any seeded draw fail the test: every check comes before the first."""
    def drew(*_):
        raise AssertionError("drew before the check")
    monkeypatch.setattr(np.random, "default_rng", drew)
    monkeypatch.setattr(np.random, "SeedSequence", drew)


@pytest.mark.parametrize("call, name, low, finite_first", [case[1:] for case in ENTRY_POINTS],
                         ids=[case[0] for case in ENTRY_POINTS])
@pytest.mark.parametrize("kind", ["fraction", "nan", "inf", "-inf", "below"])
def test_every_whole_number_entry_point_refuses_in_one_wording(monkeypatch, call, name, low,
                                                                finite_first, kind):
    value = {"fraction": 2.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "below": low - 1}[kind]
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        call(value)
    if finite_first and not math.isfinite(value):
        assert str(exc.value) == finite_first.format(value)
    else:
        assert str(exc.value) == f"{name} must be a whole number of at least {low}, got {value}"


def _plain(result):
    """A comparable form of any result: arrays as bytes (and a canvas side with
    its type), containers item by item, everything else by repr."""
    if isinstance(result, Trajectory):
        return (result.xy.tobytes(), result.state.tobytes(), result.canvas_side,
                type(result.canvas_side))
    if isinstance(result, (BinaryMask, GrayImage)):
        bits = result.bits if isinstance(result, BinaryMask) else result.pixels
        return bits.shape, bits.tobytes()
    if isinstance(result, (list, tuple)):
        return [_plain(item) for item in result]
    return repr(result)


@pytest.mark.parametrize("call", [case[1] for case in ENTRY_POINTS],
                         ids=[case[0] for case in ENTRY_POINTS])
def test_every_whole_number_entry_point_takes_a_whole_float_as_its_int(call):
    assert _plain(call(np.float64(3.0))) == _plain(call(3))


def test_whole_gives_a_python_int():
    for value in (3, np.int64(3), 3.0, np.float64(3.0)):
        assert type(_whole(value, "n")) is int and _whole(value, "n") == 3
    assert _whole(10 ** 400, "n") == 10 ** 400  # an int past float range is whole
    with pytest.raises(TypeError):
        _whole("3", "n")


def test_a_whole_float_seed_gives_the_int_seeds_corpus():
    assert _plain(make_synthetic_corpus(2, seed=np.float64(2.0))) == \
        _plain(make_synthetic_corpus(2, seed=2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [lambda v: {"step_range": (v, 11.0)},
                                   lambda v: {"step_range": (5.0, v)},
                                   lambda v: {"wiggle": v}],
                         ids=["step low", "step high", "wiggle"])
def test_synthetic_corpus_refuses_a_non_finite_walk_before_any_draw(monkeypatch, shape, value):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        make_synthetic_corpus(2, **shape(value))
    [(name, given)] = shape(value).items()
    assert str(exc.value) == f"{name} must be finite, got {given}"


@pytest.mark.parametrize("side", [math.nan, math.inf, 9.5])
def test_synthetic_corpus_refuses_a_side_that_is_not_whole_before_any_draw(monkeypatch, side):
    """NaN and inf pass the at-least-9 test; they used to reach numpy's uniform draw."""
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        make_synthetic_corpus(2, side=side)
    assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


# each entry point that takes a canvas side, called with one
SIDE_SITES = {
    "make_synthetic_corpus": lambda side: make_synthetic_corpus(1, side=side),
    "from_arrays": lambda side: Trajectory.from_arrays(GLYPH.xy, GLYPH.state, side),
    "Trajectory": lambda side: Trajectory(GLYPH.points, side),
    "rasterize": lambda side: rasterize(GLYPH, side),
    "rasterize_many": lambda side: rasterize_many([GLYPH, GLYPH], side),
    "normalize_to_canvas": lambda side: normalize_to_canvas(GLYPH, side),
}


@pytest.mark.parametrize("site", list(SIDE_SITES.values()), ids=list(SIDE_SITES))
@pytest.mark.parametrize("side", [10**400, 2**1024], ids=["10**400", "2**1024"])
def test_a_canvas_side_past_the_float_range_is_refused_before_any_work(monkeypatch, site, side):
    """A whole int past the float range passes `_whole`.  The synthetic
    corpus's draw bound side - 5.0 raised Python's OverflowError, as did the
    render and the normalize scale, and a trajectory took it as its side."""
    _refuse_draws(monkeypatch)
    monkeypatch.setattr(raster, "_render_stack", lambda *_: pytest.fail("rendered"))
    with pytest.raises(ValueError) as exc:
        site(side)
    assert str(exc.value) == f"canvas side must be finite, got {side}"


# one call of each runner on the module corpus with a small grid, by seed
RUNNER_SEEDS = {
    "sensitivity": lambda s: sensitivity_run(CORPUS, "point-drift", (1,), seed=s),
    "stroke-width": lambda s: invariance_run(CORPUS, "stroke-width", (0, 1), seed=s),
    "sample-rate": lambda s: invariance_run(CORPUS, "sample-rate", (1.0, 2.0), seed=s),
}


@pytest.mark.parametrize("run", list(RUNNER_SEEDS.values()), ids=list(RUNNER_SEEDS))
@pytest.mark.parametrize("seed", [2.5, math.nan, -1])
def test_runners_refuse_a_seed_that_is_not_whole_before_any_draw(monkeypatch, run, seed):
    """2.5 was numpy's TypeError from `derive_seed`, and -1 was masked to 64 bits."""
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError) as exc:
        run(seed)
    assert str(exc.value) == f"seed must be a whole number of at least 0, got {seed}"


@pytest.mark.parametrize("run", list(RUNNER_SEEDS.values()), ids=list(RUNNER_SEEDS))
def test_a_whole_float_runner_seed_gives_the_int_seeds_curves(run):
    reports = run(np.float64(2.0))
    assert reports_to_csv(reports) == reports_to_csv(run(2))
    assert all(type(report.seed) is int and report.seed == 2 for report in reports)


@pytest.mark.parametrize("shape, name", [({"wiggle": 1e308}, "wiggle"),
                                         ({"step_range": (-1e308, 1e308)}, "step_range")])
def test_synthetic_corpus_refuses_a_draw_span_past_the_float_range(monkeypatch, shape, name):
    """Each end is finite, but high - low of the uniform draw is not: numpy
    warned of an overflow, then raised its own OverflowError."""
    _refuse_draws(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            make_synthetic_corpus(2, **shape)
    assert str(exc.value) == f"{name} spans past the float range, got {shape[name]}"

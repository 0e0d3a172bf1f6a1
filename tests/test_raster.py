"""Rasterization, Otsu binarization, dilation, and PGM I/O tests.

Each algorithm is checked against an independent brute-force oracle written
directly from its definition.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import (BinaryMask, DegenerateHistogramError, GrayImage,
                      OutOfCanvasError, PenState, TrajPoint, Trajectory,
                      binarize, dedupe_points, dilate3x3, make_synthetic_corpus,
                      otsu_threshold, rasterize, rasterize_many, read_pgm, resample,
                      write_pgm)
from trajeval.raster import _segment_pixels, mask_to_gray
from trajeval.traj_core import _STACK_CELLS, DOWN, EOS, UP

from conftest import random_traj, traj_from_strokes


# --- brute-force oracles -----------------------------------------------------

def _rhu_div(a: int, b: int) -> int:
    # round-half-up of a/b for integer a, b > 0; exact in integer arithmetic
    return (2 * a + b) // (2 * b)


def line_pixels(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Closest-pixel (Bresenham) raster of the segment between two pixels."""
    n = max(abs(x1 - x0), abs(y1 - y0))
    if n == 0:
        return [(x0, y0)]
    return [(x0 + _rhu_div((x1 - x0) * i, n), y0 + _rhu_div((y1 - y0) * i, n))
            for i in range(n + 1)]


def otsu_oracle(pixels):
    """Exhaustive between-class-variance scan; smallest argmax."""
    hist = np.bincount(np.asarray(pixels, dtype=np.uint8).ravel(), minlength=256)
    total = hist.sum()
    best_t, best_v = None, -1.0
    for t in range(256):
        w0 = hist[:t + 1].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = (hist[:t + 1] * np.arange(t + 1)).sum() / w0
        mu1 = (hist[t + 1:] * np.arange(t + 1, 256)).sum() / w1
        v = float(w0) * float(w1) * (mu0 - mu1) ** 2
        if v > best_v:
            best_t, best_v = t, v
    return best_t


def dilate_oracle(bits):
    """Direct 3x3 neighborhood-max, one pass."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            y0, y1 = max(y - 1, 0), min(y + 2, h)
            x0, x1 = max(x - 1, 0), min(x + 2, w)
            out[y, x] = bits[y0:y1, x0:x1].any()
    return out


# --- the segment oracle: line_pixels ----------------------------------------

def test_line_pixels_axis_aligned():
    assert line_pixels(1, 2, 4, 2) == [(1, 2), (2, 2), (3, 2), (4, 2)]
    assert line_pixels(0, 3, 0, 0) == [(0, 3), (0, 2), (0, 1), (0, 0)]
    assert line_pixels(5, 5, 5, 5) == [(5, 5)]


def test_line_pixels_diagonal():
    assert line_pixels(0, 0, 3, 3) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_line_pixels_shallow_slope_rounds_half_up():
    # slope 1/2: fractional y hits .5 at odd columns and rounds up
    assert line_pixels(0, 0, 4, 2) == [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2)]


def test_line_pixels_are_connected_and_monotone(rng):
    for _ in range(200):
        x0, y0, x1, y1 = rng.integers(0, 32, size=4).tolist()
        pix = line_pixels(x0, y0, x1, y1)
        assert pix[0] == (x0, y0) and pix[-1] == (x1, y1)
        assert len(pix) == max(abs(x1 - x0), abs(y1 - y0)) + 1
        for (ax, ay), (bx, by) in zip(pix, pix[1:]):
            assert max(abs(bx - ax), abs(by - ay)) == 1  # 8-connected, no repeats
            if x1 >= x0:
                assert bx >= ax
            if y1 >= y0:
                assert by >= ay


def test_line_pixels_max_error_is_half_pixel(rng):
    """Every chosen pixel is within 0.5 of the ideal segment ordinate."""
    for _ in range(100):
        x0, y0, x1, y1 = rng.integers(0, 32, size=4).tolist()
        n = max(abs(x1 - x0), abs(y1 - y0))
        for i, (x, y) in enumerate(line_pixels(x0, y0, x1, y1)):
            if n == 0:
                continue
            t = i / n
            assert abs(x - (x0 + (x1 - x0) * t)) <= 0.5 + 1e-9
            assert abs(y - (y0 + (y1 - y0) * t)) <= 0.5 + 1e-9


# --- trajectory rendering ----------------------------------------------------

def test_rasterize_single_point_stroke():
    traj = traj_from_strokes([[(3.4, 7.6)]])
    mask = rasterize(traj)
    assert mask.count() == 1 and bool(mask.bits[8, 3])


def test_rasterize_does_not_bridge_pen_up():
    traj = traj_from_strokes([[(0, 0), (3, 0)], [(0, 5), (3, 5)]])
    mask = rasterize(traj)
    assert mask.count() == 8
    assert not mask.bits[1:5, :].any()


def test_rasterize_out_of_canvas_names_the_point():
    traj = traj_from_strokes([[(0, 0), (70, 0)]])
    with pytest.raises(OutOfCanvasError, match="point 1"):
        rasterize(traj)


def test_rasterize_honors_side_override():
    traj = traj_from_strokes([[(0, 0), (9, 9)]], side=64)
    assert rasterize(traj, 16).width == 16


def raster_oracle(strokes, side):
    """Union of line_pixels over each stroke's consecutive rounded points."""
    grid = np.zeros((side, side), dtype=bool)
    for stroke in strokes:
        pix = [(math.floor(x + 0.5), math.floor(y + 0.5)) for x, y in stroke]
        grid[pix[0][1], pix[0][0]] = True
        for (ax, ay), (bx, by) in zip(pix, pix[1:]):
            for x, y in line_pixels(ax, ay, bx, by):
                grid[y, x] = True
    return grid


def _points_of(strokes, close_last, eos_at):
    """Pen-state points of the strokes; the last stroke ends pen-up only if
    close_last, and an EOS marker is appended at eos_at unless it is None."""
    points = []
    for si, stroke in enumerate(strokes):
        for j, (x, y) in enumerate(stroke):
            closes = j == len(stroke) - 1 and (si < len(strokes) - 1 or close_last)
            points.append(TrajPoint(x, y, PenState.UP if closes else PenState.DOWN))
    if eos_at is not None:
        points.append(TrajPoint(eos_at[0], eos_at[1], PenState.EOS))
    return tuple(points)


def test_rasterize_matches_segment_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for trial in range(300):
        canvas = int(rng.choice([8, 16, 64]))
        side = [None, canvas, canvas + 5, max(canvas // 2, 2)][trial % 4]
        extent = min(canvas, side if side is not None else canvas) - 1.0
        strokes = []
        for _ in range(int(rng.integers(1, 5))):
            m = int(rng.integers(1, 7))  # one in six strokes is a single point
            strokes.append(list(zip(rng.uniform(0.0, extent, size=m).tolist(),
                                    rng.uniform(0.0, extent, size=m).tolist())))
        close_last = trial % 3 != 0
        eos_at = (None if trial % 2 else
                  tuple(rng.uniform(0.0, extent, size=2).tolist()))
        traj = Trajectory(_points_of(strokes, close_last, eos_at), canvas_side=canvas)
        want = raster_oracle(strokes, side if side is not None else canvas)
        assert np.array_equal(rasterize(traj, side).bits, want), trial


# --- stacked rendering -------------------------------------------------------

@st.composite
def glyphs(draw):
    """A trajectory on an 8, 16 or 64 px canvas: 1-4 strokes of 1-5 points,
    the last one pen-up or not, with or without EOS, some reaching past the
    canvas; or a lone EOS marker, which draws nothing."""
    canvas = draw(st.sampled_from([8, 16, 64]))
    if draw(st.integers(0, 9)) == 0:
        return Trajectory.from_arrays([(1.0, 2.0)], [EOS], canvas)
    lo, hi = (-3.0, canvas + 2.0) if draw(st.booleans()) else (0.0, canvas - 1.0)
    coord = st.floats(lo, hi, allow_nan=False)
    xy, state = [], []
    for _ in range(draw(st.integers(1, 4))):
        stroke = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
        xy += stroke
        state += [DOWN] * (len(stroke) - 1) + [UP]
    if not draw(st.booleans()):
        state[-1] = DOWN  # the last stroke is never lifted
    if draw(st.booleans()):
        xy.append(xy[-1])
        state.append(EOS)
    return Trajectory.from_arrays(xy, state, canvas)


@settings(max_examples=300, deadline=None)
@given(st.lists(glyphs(), max_size=12), st.sampled_from([None, 8, 16]))
def test_rasterize_many_equals_one_at_a_time(trajs, side):
    got = rasterize_many(trajs, side)
    assert len(got) == len(trajs)
    for traj, mask in zip(trajs, got):
        try:
            want = rasterize(traj, side)
        except OutOfCanvasError as exc:
            assert type(mask) is OutOfCanvasError and str(mask) == str(exc)
            continue
        assert isinstance(mask, BinaryMask) and mask.bits.shape == want.bits.shape
        assert np.array_equal(mask.bits, want.bits)


def test_rasterize_many_ends_each_trajectory_at_its_last_point():
    """An open last stroke draws no segment into the next trajectory, and a
    rejected member between two others leaves them as they are."""
    open_end = Trajectory.from_arrays([(0.0, 0.0), (3.0, 0.0)], [DOWN, DOWN], 8)
    outside = Trajectory.from_arrays([(1.0, 1.0), (9.0, 1.0)], [DOWN, UP], 8)
    closed = Trajectory.from_arrays([(0.0, 5.0), (3.0, 5.0), (3.0, 5.0)], [DOWN, UP, EOS], 8)
    first, error, last = rasterize_many([open_end, outside, closed])
    assert first.count() == 4 and first.bits[0, :4].all()
    assert isinstance(error, OutOfCanvasError) and "point 1" in str(error)
    assert last.count() == 4 and last.bits[5, :4].all()


@pytest.mark.parametrize("side", [0, -3, 64.5, math.nan, math.inf])
def test_rasterize_rejects_a_canvas_side_that_is_not_a_whole_number_of_at_least_1(side):
    """Checked before any render, also for a trajectory with no drawn point,
    whose batch used to fail as a whole on its empty 0 x 0 mask."""
    eos_only = Trajectory.from_arrays([(1.0, 1.0)], [EOS], 8)
    for call in (lambda: rasterize(traj_from_strokes([[(1, 1), (2, 2)]]), side),
                 lambda: rasterize_many([eos_only, traj_from_strokes([[(1, 1)]])], side)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"canvas side must be a whole number of at least 1, got {side}"


def test_rasterize_takes_a_whole_float_side_as_an_int():
    mask = rasterize(traj_from_strokes([[(1, 1), (2, 2)]]), np.float64(8.0))
    assert mask.bits.shape == (8, 8) and mask.count() == 2


@st.composite
def _segments(draw):
    """Segments on a canvas of side up to 2**24, each at most 300 steps long;
    odd minor deltas of even step counts put an exact half-way tie at i = n/2."""
    side = draw(st.integers(1, 2 ** 24))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, min(300, side - 1))) if side > 1 else 0
        if draw(st.booleans()) and n > 1:
            n -= n % 2
            minor = draw(st.integers(-(n - 1) // 2, (n - 1) // 2)) * 2 + 1
        else:
            minor = draw(st.integers(-n, n))
        major = draw(st.sampled_from([-n, n]))
        delta = (major, minor) if draw(st.booleans()) else (minor, major)
        x0 = draw(st.integers(max(0, -delta[0]), side - 1 - max(0, delta[0])))
        y0 = draw(st.integers(max(0, -delta[1]), side - 1 - max(0, delta[1])))
        out.append(((x0, y0), delta))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_segments())
def test_segment_pixels_match_the_integer_formula(segments):
    """Each step i in 0..n-1 of a segment is start + (2 delta i + n) // 2n,
    the exact integer round-half-up, ties included."""
    start = np.array([s for s, _ in segments], dtype=np.int64).reshape(-1, 2)
    delta = np.array([d for _, d in segments], dtype=np.int64).reshape(-1, 2)
    pixels, n = _segment_pixels(start, delta)
    want = [(x0 + (2 * dx * i + m) // (2 * m), y0 + (2 * dy * i + m) // (2 * m))
            for (x0, y0), (dx, dy) in segments
            for m in [max(abs(dx), abs(dy))] for i in range(m)]
    assert n.tolist() == [max(abs(dx), abs(dy)) for _, (dx, dy) in segments]
    assert pixels.dtype == np.int64
    assert [tuple(p) for p in pixels.tolist()] == want


def test_rasterize_many_of_nothing_is_empty():
    assert rasterize_many([]) == []


def test_rasterize_many_renders_one_stack_at_a_time():
    """A 1,000-glyph call renders stacks of `_STACK_CELLS` mask cells one after
    another: its working memory above the masks it returns is no more than a
    one-stack call's, and every mask equals its one-at-a-time render."""
    corpus = make_synthetic_corpus(1000, seed=3)

    def working_peak(batch):
        tracemalloc.start()
        try:
            masks = rasterize_many(batch)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(masks) == len(batch)
        return peak - held, masks

    one, _ = working_peak(corpus[:_STACK_CELLS // 64 ** 2])
    many, masks = working_peak(corpus)
    assert many < 1.5 * one
    # a stack's grid takes _STACK_CELLS bytes and its index arrays a few times that
    assert many < 8 * _STACK_CELLS
    assert all(mask.same_bits(rasterize(traj)) for traj, mask in zip(corpus, masks))


# --- Otsu / binarize ---------------------------------------------------------

def test_otsu_matches_oracle(rng):
    for _ in range(50):
        px = rng.integers(0, 256, size=(12, 12)).astype(np.uint8)
        if len(np.unique(px)) < 2:
            continue
        assert otsu_threshold(GrayImage(px)) == otsu_oracle(px)


def test_otsu_bimodal_splits_the_modes():
    px = np.array([[10] * 8 + [200] * 8] * 4, dtype=np.uint8)
    t = otsu_threshold(GrayImage(px))
    assert 10 <= t < 200


def test_otsu_rejects_flat_image():
    with pytest.raises(DegenerateHistogramError):
        otsu_threshold(GrayImage(np.full((8, 8), 77, dtype=np.uint8)))


def test_binarize_polarity():
    px = np.array([[0, 0, 255, 255]], dtype=np.uint8)
    assert binarize(GrayImage(px)).bits.tolist() == [[True, True, False, False]]


# --- dilation ----------------------------------------------------------------

def test_dilate_matches_oracle(rng):
    for _ in range(30):
        bits = rng.random((10, 10)) < 0.2
        got = dilate3x3(BinaryMask(bits), 1).bits
        assert np.array_equal(got, dilate_oracle(bits))


def test_dilate_k_steps_compose(rng):
    bits = rng.random((16, 16)) < 0.1
    once_thrice = dilate3x3(dilate3x3(dilate3x3(BinaryMask(bits), 1), 1), 1)
    assert dilate3x3(BinaryMask(bits), 3).same_bits(once_thrice)


def test_dilate_zero_is_identity(rng):
    bits = rng.random((8, 8)) < 0.3
    assert dilate3x3(BinaryMask(bits), 0).same_bits(BinaryMask(bits))
    with pytest.raises(ValueError):
        dilate3x3(BinaryMask(bits), -1)


def test_dilate_is_monotone(rng):
    bits = rng.random((12, 12)) < 0.15
    prev = BinaryMask(bits)
    for _ in range(3):
        cur = dilate3x3(prev, 1)
        assert (prev.bits <= cur.bits).all()
        prev = cur


@pytest.mark.parametrize("shape,seed_pixel", [
    ((7, 7), (0, 0)), ((5, 9), (4, 8)), ((9, 4), (0, 3)), ((6, 6), None)])
def test_dilate_huge_k_equals_steps_past_saturation(shape, seed_pixel):
    bits = np.zeros(shape, dtype=bool)
    if seed_pixel is not None:
        bits[seed_pixel] = True  # a corner pixel is the last to fill the canvas
    side = max(shape)
    huge = dilate3x3(BinaryMask(bits), 10**9)  # capped, so returns at once
    step = BinaryMask(bits)
    for k in range(1, side + 2):
        step = dilate3x3(step, 1)
        if k >= side - 1:
            assert huge.same_bits(step), k


# --- PGM I/O -----------------------------------------------------------------

def test_pgm_round_trip(tmp_path, rng):
    px = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(GrayImage(px), path)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, px)


@pytest.mark.parametrize("bits", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4),
                                  np.zeros((2, 2, 2)), True])
def test_binary_mask_rejects_an_empty_or_non_2d_array(bits):
    with pytest.raises(ValueError) as exc:
        BinaryMask(bits)
    assert str(exc.value) == "mask must be a non-empty 2-D array"


def test_mask_pgm_round_trip(tmp_path, rng):
    mask = BinaryMask(rng.random((7, 7)) < 0.4)
    path = tmp_path / "mask.pgm"
    write_pgm(mask_to_gray(mask), path)
    assert binarize(read_pgm(path)).same_bits(mask)


def test_pgm_reader_skips_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 1\n255\n\x00\xff")
    assert read_pgm(path).pixels.tolist() == [[0, 255]]


@pytest.mark.parametrize("data", [
    b"P2\n2 1\n255\n\x00\xff",       # wrong magic
    b"P5\n2 1\n65535\n\x00\xff",     # unsupported maxval
    b"P5\n4 4\n255\n\x00",           # truncated pixels
    b"P5\n2",                        # truncated header
    b"P5\n-1 4\n255\n" + bytes(8),   # negative width
    b"P5\n-2 -3\n255\n" + bytes(6),  # negative width and height
    b"P5\nx 1\n255\n\x00",          # non-numeric width
])
def test_pgm_reader_rejects_malformed(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        read_pgm(path)


_pgm_like = st.builds(
    lambda magic, w, h, maxval, sep, pixels: b"%s%s%d %d%s%d\n%s" % (
        magic, sep, w, h, sep, maxval, pixels),
    st.sampled_from([b"P5", b"P2", b"P5#", b""]),
    st.integers(min_value=-3, max_value=6) | st.integers(),
    st.integers(min_value=-3, max_value=6) | st.integers(),
    st.sampled_from([255, 0, 65535, -1]),
    st.sampled_from([b"\n", b" ", b"\n# c\n", b""]),
    st.binary(max_size=40))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.pgm"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=64) | _pgm_like)
def test_pgm_reader_fuzz_raises_only_value_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    try:
        img = read_pgm(fuzz_path)
    except ValueError:
        return
    assert img.pixels.size == img.width * img.height > 0


def _pgm_header_fields_reference(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments: the
    byte-at-a-time scanner `read_pgm`'s one regex replaced."""
    i = 0
    while i < len(data):
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            yield data[i:j], j
            i = j


def read_pgm_reference(path) -> GrayImage:
    """`read_pgm` over the byte-at-a-time header scanner."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = _pgm_header_fields_reference(data)
    try:
        magic, _ = next(fields)
        if magic != b"P5":
            raise ValueError(f"unsupported PGM magic {magic!r}, expected P5")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(fields), next(fields), next(fields)
    except StopIteration:
        raise ValueError("truncated PGM header") from None
    width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}, expected 255")
    raw = data[end + 1:end + 1 + width * height]
    if len(raw) < width * height:
        raise ValueError("PGM pixel data shorter than promised by header")
    return GrayImage(np.frombuffer(raw, dtype=np.uint8).reshape(height, width))


# the six bytes `bytes.isspace` accepts, and CR-only, LF and CRLF line ends
_pgm_space = st.sampled_from([b" ", b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b"\r\n"])
_pgm_comment = st.builds(lambda body, end: b"#" + body + end,
                         st.sampled_from([b"", b" c", b"#", b"2 3 255", b"\x0b\x0c", b"\xff"]),
                         st.sampled_from([b"\n", b"\r", b"\r\n", b"\n", b"\r", b""]))
_pgm_token = st.sampled_from([b"P5", b"P2", b"P5#c", b"2", b"3", b"2#4", b"255", b"255#",
                              b"0", b"-1", b"x", b"#"])


@st.composite
def _pgm_headers(draw):
    """The header tokens and pixel bytes of a 2 x 3 image, each replaced by
    another token one time in eight and each after whitespace bytes that may
    open a comment; the file is cut short one time in eight."""
    data, pixels = b"", draw(st.binary(min_size=6, max_size=8))
    for i, token in enumerate((b"P5", b"2", b"3", b"255", pixels)):
        for _ in range(draw(st.integers(i > 0, 2))):
            data += draw(_pgm_space) + (draw(_pgm_comment) if draw(st.booleans()) else b"")
        data += token if draw(st.integers(0, 7)) else draw(_pgm_token)
    return data if draw(st.integers(0, 7)) else data[:draw(st.integers(0, len(data)))]


def _pgm_outcome(read, path):
    try:
        img = read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome includes the error type
        return type(exc).__name__, str(exc)
    return img.pixels.shape, img.pixels.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_pgm_headers() | _pgm_like | st.binary(max_size=32))
def test_pgm_reader_matches_the_byte_scanner_reference(fuzz_path, data):
    fuzz_path.write_bytes(data)
    assert _pgm_outcome(read_pgm, fuzz_path) == _pgm_outcome(read_pgm_reference, fuzz_path)


# --- preprocessing / raster interaction --------------------------------------

def test_dedupe_is_mask_invariant(rng):
    """Dropping same-pixel duplicates never changes the rendered mask."""
    for _ in range(20):
        traj = random_traj(rng, n_strokes=(1, 4), n_points=(2, 8))
        assert rasterize(dedupe_points(traj)).same_bits(rasterize(traj))


def test_resample_mask_stays_within_one_dilation(rng):
    """Subdividing segments re-anchors chords at interior pixels, which can
    shift individual pixels, but every shift is bounded by one dilation."""
    for _ in range(15):
        traj = random_traj(rng, n_strokes=(1, 3), n_points=(2, 6))
        base = rasterize(traj)
        for factor in (2.0, 4.0):
            fine = rasterize(resample(traj, factor))
            assert (base.bits <= dilate3x3(fine, 1).bits).all()
            assert (fine.bits <= dilate3x3(base, 1).bits).all()


def test_mask_to_gray_polarity():
    g = mask_to_gray(BinaryMask(np.array([[True, False]])))
    assert g.pixels.tolist() == [[0, 255]]


_SIDES = st.one_of(st.sampled_from([1, 63, 64, 65, 128, 130]), st.integers(1, 130))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_SIDES, _SIDES, st.integers(0, 3), st.sampled_from([0.0, 0.01, 0.1, 1.0]),
       st.integers(0, 2**32 - 1))
def test_dilate_equals_k_oracle_steps_at_any_width(h, w, k, density, seed):
    """Rows of 63, 64, 65 and 128 pixels cross the word carries and the tail mask."""
    bits = np.random.default_rng(seed).random((h, w)) < density
    want = bits
    for _ in range(k):
        want = dilate_oracle(want)
    assert np.array_equal(dilate3x3(BinaryMask(bits), k).bits, want)


@pytest.mark.parametrize("k, message", [
    (2.5, "dilation count must be a whole number of at least 0, got 2.5"),
    (math.nan, "dilation count must be a whole number of at least 0, got nan"),
    (math.inf, "dilation count must be a whole number of at least 0, got inf"),
    (-math.inf, "dilation count must be a whole number of at least 0, got -inf"),
    (-2, "dilation count must be a whole number of at least 0, got -2"),
])
def test_dilate_rejects_a_count_that_is_not_a_non_negative_whole_number(k, message):
    with pytest.raises(ValueError) as exc:
        dilate3x3(BinaryMask(np.ones((3, 3), bool)), k)
    assert str(exc.value) == message


def test_dilate_takes_a_whole_float_count_and_refuses_a_string():
    assert dilate3x3(BinaryMask(np.eye(3, dtype=bool)), 1.0).bits.all()
    with pytest.raises(TypeError):
        dilate3x3(BinaryMask(np.ones((3, 3), bool)), "1")

"""Rasterization, Otsu binarization, dilation, and PGM I/O tests.

Each algorithm is checked against an independent brute-force oracle written
directly from its definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajeval import (BinaryMask, DegenerateHistogramError, GrayImage,
                      OutOfCanvasError, binarize, dedupe_points, dilate3x3,
                      otsu_threshold, rasterize, read_mask_pgm, read_pgm,
                      resample, write_mask_pgm, write_pgm)
from trajeval.raster import line_pixels, mask_to_gray

from conftest import random_traj, traj_from_strokes


# --- brute-force oracles -----------------------------------------------------

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


# --- line rasterization ------------------------------------------------------

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
    assert binarize(GrayImage(px), "ink-is-dark").bits.tolist() == \
        [[True, True, False, False]]
    assert binarize(GrayImage(px), "ink-is-light").bits.tolist() == \
        [[False, False, True, True]]
    with pytest.raises(ValueError):
        binarize(GrayImage(px), "sideways")


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


# --- PGM I/O -----------------------------------------------------------------

def test_pgm_round_trip(tmp_path, rng):
    px = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(GrayImage(px), path)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, px)


def test_mask_pgm_round_trip(tmp_path, rng):
    bits = rng.random((7, 7)) < 0.4
    path = tmp_path / "mask.pgm"
    write_mask_pgm(BinaryMask(bits), path)
    assert read_mask_pgm(path).same_bits(BinaryMask(bits))


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
    g = mask_to_gray(BinaryMask(np.array([[True, False]])), foreground=0,
                     background=255)
    assert g.pixels.tolist() == [[0, 255]]

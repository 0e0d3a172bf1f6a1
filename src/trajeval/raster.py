"""Binary stroke masks: rendering, Otsu binarization, 3x3 dilation, PGM I/O."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .traj_core import DOWN, Trajectory, _ok, _stacks, _whole, pixel_of


class OutOfCanvasError(ValueError):
    """A trajectory point rounds to a pixel outside the raster canvas."""


class DegenerateHistogramError(ValueError):
    """Otsu thresholding needs at least two distinct intensities."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image, row-major: dark ink (0 at darkest) on a light ground."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim != 2 or px.shape[0] == 0 or px.shape[1] == 0:
            raise ValueError("image must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean raster, True = stroke foreground."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool)
        if b.ndim != 2 or b.shape[0] == 0 or b.shape[1] == 0:
            raise ValueError("mask must be a non-empty 2-D array")
        object.__setattr__(self, "bits", b)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())

    def same_bits(self, other: "BinaryMask") -> bool:
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits))


def rasterize_many(trajs, side: int | None = None) -> list[BinaryMask | OutOfCanvasError]:
    """`rasterize` of each trajectory, in input order; a trajectory that
    `rasterize` rejects gets the OutOfCanvasError it would raise in its place.
    Each stack `_stacks` cuts by canvas side (`side`, else each one's own) is
    rendered by one set of numpy calls into a (count, side, side) grid, and
    each mask is a view of its stack."""
    side = side if side is None else _whole(side, "canvas side", 1)
    out: list[BinaryMask | OutOfCanvasError | None] = [None] * len(trajs)
    sides = (side if side is not None else traj.canvas_side for traj in trajs)
    for (canvas, _), stack in _stacks((index, (s, s), (s, s)) for index, s in enumerate(sides)):
        for index, mask in zip(stack, _render_stack([trajs[index] for index in stack], canvas)):
            out[index] = mask
    return out


def _render_stack(trajs, side: int) -> list[BinaryMask | OutOfCanvasError]:
    """Masks of trajectories on one side x side canvas, all in one pass.

    Every drawn point is set, and each segment from a pen-down point to its
    successor in the same trajectory is drawn pixel by pixel: between pixels
    p0 and p1, n = max(|dx|, |dy|) steps apart, each i in 0..n sets
    p0 + round-half-up((p1 - p0) * i / n) (`_segment_pixels`).  A trajectory
    with a point outside the canvas draws nothing and gets its error instead.
    """
    xys = [traj.drawn_xy() for traj in trajs]
    lens = np.array([len(xy) for xy in xys])
    ends = np.cumsum(lens)
    owner = np.repeat(np.arange(len(trajs)), lens)  # trajectory of each point
    down = np.concatenate([traj.state[:len(xy)] for traj, xy in zip(trajs, xys)]) == DOWN
    down[ends[lens > 0] - 1] = False  # a last point starts no segment, pen-up or not
    xy = np.concatenate(xys)
    pix = np.floor(xy + 0.5)
    outside = ((pix < 0) | (pix >= side)).any(axis=1)
    errors = {}
    if outside.any():
        for k in np.unique(owner[outside]).tolist():
            idx = int(np.argmax(outside[ends[k] - lens[k]:ends[k]]))
            x, y = xys[k][idx].tolist()
            px, py = pixel_of(x, y)
            errors[k] = OutOfCanvasError(
                f"point {idx} at ({x}, {y}) rounds to pixel ({px}, {py}) "
                f"outside the {side}x{side} canvas")
        keep = ~np.isin(owner, list(errors))
        pix, owner, down = pix[keep], owner[keep], down[keep]
    pix = pix.astype(np.int64)
    seg = np.flatnonzero(down)
    line, n = _segment_pixels(pix[seg], pix[seg + 1] - pix[seg])
    grid = np.zeros((len(trajs), side, side), dtype=bool)
    flat = grid.reshape(-1)
    flat[(owner * side + pix[:, 1]) * side + pix[:, 0]] = True
    flat[(np.repeat(owner[seg], n) * side + line[:, 1]) * side + line[:, 0]] = True
    return [errors[k] if k in errors else BinaryMask(grid[k]) for k in range(len(trajs))]


def _segment_pixels(start: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pixels, n) of int64 segments start -> start + delta, n = max(|dx|, |dy|) each:
    start + floor((2 delta i + n) / 2n) per step i in 0..n-1.  The float64 quotient's
    floor is exact while |2 delta i + n| < 2**53: on any side up to 2**26, where one
    mask would take 2**52 bytes."""
    n = np.abs(delta).max(axis=1)
    i = (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))[:, None]
    m = np.repeat(n, n)[:, None]
    return (np.floor((2 * np.repeat(delta, n, axis=0) * i + m) / (2 * m))
            + np.repeat(start, n, axis=0)).astype(np.int64), n


def rasterize(traj: Trajectory, side: int | None = None) -> BinaryMask:
    """Render a trajectory as a width-1 mask; no segment crosses a pen-up.

    A batch of one through `rasterize_many`: every drawn point is set, and
    each segment from a pen-down pixel p0 to its successor p1 sets
    p0 + round-half-up((p1 - p0) * i / n) for each i in 0..n, where
    n = max(|dx|, |dy|), all segments in one pass.
    """
    return _ok(rasterize_many([traj], side)[0])


def otsu_threshold(img: GrayImage) -> int:
    """Threshold level maximizing between-class variance; smallest argmax wins."""
    hist = np.bincount(img.pixels.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        raise DegenerateHistogramError(
            "degenerate histogram: image has a single intensity, no separation exists")
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    total = w0[-1]
    m0 = np.cumsum(hist * levels)
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean0 = m0 / w0
        mean1 = (m0[-1] - m0) / w1
        between = w0 * w1 * (mean0 - mean1) ** 2
    between = np.where(valid, between, -1.0)
    return int(np.argmax(between))


def binarize(img: GrayImage) -> BinaryMask:
    """Foreground = dark ink: the pixels at or below the Otsu threshold."""
    return BinaryMask(img.pixels <= otsu_threshold(img))


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., h, w) bools as (..., h, ceil(w / 64)) words: pixel x is bit x % 64 of word x // 64."""
    if bits.shape[-1] % 64:  # pad each row to whole words
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (-bits.shape[-1] % 64,), bool)], -1)
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def _ones(words: np.ndarray) -> np.ndarray:
    """Set pixels of each `_pack`ed mask of a stack, as int64."""
    return np.bitwise_count(words).sum(axis=(-2, -1), dtype=np.int64)


def _dilate_step(words: np.ndarray, width: int) -> np.ndarray:
    """One clipped 3x3 dilation of `_pack`ed masks (van den Boomgaard & van Balen 1992)."""
    rows = words | words << 1 | words >> 1
    if width > 64:  # carries between the words of a row
        rows[..., 1:] |= words[..., :-1] >> 63
        rows[..., :-1] |= words[..., 1:] << 63
    if width % 64:
        rows[..., -1] &= (1 << width % 64) - 1  # clear the bits past width
    out = rows.copy()
    out[..., 1:, :] |= rows[..., :-1, :]
    out[..., :-1, :] |= rows[..., 1:, :]
    return out


def dilate3x3(mask: BinaryMask, k: int = 1) -> BinaryMask:
    """k applications of dilation with the full 3x3 element (`_dilate_step`),
    clipped at borders.  k is capped at max(height, width): by then any
    non-empty mask fills the canvas, so further applications change nothing."""
    steps = min(_whole(k, "dilation count"), max(mask.bits.shape))
    words = _pack(mask.bits)
    for _ in range(steps):
        words = _dilate_step(words, mask.width)
    return BinaryMask(np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1,
                                    count=mask.width, bitorder="little").view(bool))


def mask_to_gray(mask: BinaryMask) -> GrayImage:
    """The mask as dark ink on white (0 on 255), the image `binarize` reads back."""
    return GrayImage(np.where(mask.bits, 0, 255).astype(np.uint8))


# --- binary PGM (P5, maxval 255) -------------------------------------------

# a header token, or a comment from a '#' that starts a token to the end of its line
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|(\S+)")


def write_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.tobytes())


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    fields = (m for m in _PGM_TOKEN.finditer(data) if m[1])
    try:
        magic = next(fields)[1]
        if magic != b"P5":
            raise ValueError(f"unsupported PGM magic {magic!r}, expected P5")
        w_tok, h_tok, max_tok = next(fields), next(fields), next(fields)
    except StopIteration:
        raise ValueError("truncated PGM header") from None
    width, height, maxval = int(w_tok[1]), int(h_tok[1]), int(max_tok[1])
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}, expected 255")
    end = max_tok.end() + 1  # one whitespace byte ends the header
    raw = data[end:end + width * height]
    if len(raw) < width * height:
        raise ValueError("PGM pixel data shorter than promised by header")
    return GrayImage(np.frombuffer(raw, dtype=np.uint8).reshape(height, width))

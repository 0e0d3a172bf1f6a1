"""Writing-order metrics: DTW, its alignment length T and path, LDTW, RMSE.

`dtw_many` aligns a batch of pairs with one anti-diagonal sweep per chunk and
`_walk`s back each pair's T; `dtw` is a batch of one and `.path` walks on demand.
`_fill` is the one sweep; soft-DTW uses it too.

Distances are Euclidean over (x, y) only; pen states never enter the
distance, and the end-of-sequence marker is stripped before alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .traj_core import Trajectory, _ok, _stacks


@dataclass(frozen=True)
class AlignmentPath:
    """Monotone 1-based index pairs (i_t over q, j_t over p)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if not self.pairs:
            raise ValueError("alignment path must be non-empty")
        if self.pairs[0] != (1, 1):
            raise ValueError(f"alignment path must start at (1, 1), got {self.pairs[0]}")
        for (i0, j0), (i1, j1) in zip(self.pairs, self.pairs[1:]):
            if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(
                    f"invalid alignment step ({i0}, {j0}) -> ({i1}, {j1})")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DtwResult:
    cost: float
    length: int  # T, the tie-broken path's length
    _pair: tuple = field(repr=False, compare=False)  # (q, p), read by `path` only

    @property
    def ldtw(self) -> float:
        """The cost divided by the alignment length T: the LDTW score."""
        return self.cost / self.length

    @property
    def path(self) -> AlignmentPath:
        """The tie-broken path, walked on each use through the pair's own sweep."""
        qc, pc = map(_coords, self._pair)
        pairs = [(len(qc), len(pc))]
        _walk(memoryview(_forward([(qc, pc)]).reshape(-1)), len(pc) + 2, 1, 0, *pairs[0], pairs)
        return AlignmentPath(tuple(reversed(pairs)))


def _coords(traj: Trajectory) -> np.ndarray:
    xy = traj.drawn_xy()
    if not len(xy):
        raise ValueError("trajectory has no drawn points to align")
    return xy


def _diagonals(m: int, n: int) -> list[tuple[int, int]]:
    """Flat bounds (a, b) of each anti-diagonal i + j = s, s = 2 .. m+n, of a
    flattened (m+2, n+2) table, in fill order.

    The diagonal's cells are the strided slice a:b:n+1; a cell's diagonal, up
    and left predecessors lie n+3, n+2 and 1 flat cells before it.
    """
    s = np.arange(2, m + n + 1)
    # flat indices of cells (i0, s - i0) and one past (i1, s - i1)
    a = np.maximum(1, s - n) * (n + 1) + s
    b = np.minimum(m, s - 1) * (n + 1) + s + 1
    return list(zip(a.tolist(), b.tolist()))


# Cells of the scratch band through which `_sq_dist_tables` adds the y-terms
# (32 KiB, at least one table row).  Over a band of several rows numpy buffers
# the ufuncs, with buffers up to twice the band, so the band stays small.
_BAND_CELLS = 1 << 12


def _sq_dist_tables(coords, border: float) -> np.ndarray:
    """Stacked (M+2, N+2, G) table of a chunk of (qc, pc) pairs: |q_i - p_j|^2
    of pair g at cell (i, j, g), 1-based, inside a `border` frame.  Shorter
    pairs are zero-padded to M x N; a padded cell is filled but never read.
    The pair index is last, so each diagonal's G cells are adjacent.

    The x-terms are built in the table itself and the y-terms in a band of
    rows at a time, so the table is the only allocation of its size.  Every
    operand is a copy or an unbroadcast row block: a broadcast operand would
    make numpy buffer the whole ufunc.
    """
    g_count = len(coords)
    m = max(len(qc) for qc, _ in coords)
    n = max(len(pc) for _, pc in coords)
    qs, ps = np.zeros((2, m, g_count)), np.zeros((2, n, g_count))
    for g, (qc, pc) in enumerate(coords):
        qs[:, :len(qc), g], ps[:, :len(pc), g] = qc.T, pc.T
    table = np.full((m + 2, n + 2, g_count), border)
    d = table[1:m + 1, 1:n + 1]
    np.copyto(d, qs[0, :, None])
    np.subtract(d, ps[0], out=d)
    d *= d
    rows = max(1, _BAND_CELLS // (n * g_count))
    band = np.empty((min(rows, m), n, g_count))
    for i in range(0, m, rows):
        dy = band[:min(rows, m - i)]
        np.copyto(dy, qs[1, i:i + rows, None])
        np.subtract(dy, ps[1], out=dy)
        dy *= dy
        d[i:i + rows] += dy
    return table


def _fill(d: np.ndarray, r: np.ndarray, gamma: float | None = None, guard: bool = False):
    """Fill the stacked tables r one anti-diagonal at a time for all pairs;
    return the diagonals' flat bounds.  Each cell gets its d plus the minimum
    of its diagonal, up and left predecessors or, with `gamma`, their soft-min:
    `losses.softmin`'s arithmetic in its order on buffers allocated once, so
    bit-identical to it; gamma == 1 skips / gamma and * gamma (x / 1.0 is x).
    Hard DTW passes r as d (distances in r's interior).  Only with `guard` is
    an infinite minimum its own soft-min, as in softmin; unguarded, such a cell
    is inf - inf = NaN, which np.minimum carries to every later cell and to
    r[m, n], so a caller refills r with the guard only when r[m, n] is NaN.
    `out` is positional but in np.minimum, where numpy deprecates it."""
    m, n, g_count = r.shape[0] - 2, r.shape[1] - 2, r.shape[2]
    cell = (g_count,) if g_count > 1 else ()  # a lone pair walks 1-D views: fewer numpy strides
    fd, fr, w = d.reshape((-1,) + cell), r.reshape((-1,) + cell), n + 2
    size = min(m, n)  # cells on the longest diagonal
    lo_buf = np.empty((size,) + cell)
    if gamma is not None:
        inf_buf, terms_buf = np.empty((size,) + cell, bool), np.empty((3 * size,) + cell)
        g = None if gamma == 1.0 else np.array(gamma)  # a 0-d array divides faster than a float
    minimum, add, subtract, exp, log = np.minimum, np.add, np.subtract, np.exp, np.log
    diagonals = _diagonals(m, n)
    for a, b in diagonals:
        k = (b - a + n) // (n + 1)
        lo = lo_buf[:k]
        diag, up, left = (fr[a - w - 1:b - w - 1:n + 1], fr[a - w:b - w:n + 1],
                          fr[a - 1:b - 1:n + 1])
        minimum(diag, up, out=lo)
        minimum(lo, left, out=lo)
        if gamma is not None:
            terms = terms_buf[:3 * k]
            total, up_term, left_term = terms[:k], terms[k:2 * k], terms[2 * k:]
            subtract(lo, diag, total)
            subtract(lo, up, up_term)
            subtract(lo, left, left_term)
            if g is not None:
                np.divide(terms, g, terms)
            exp(terms, terms)
            add(total, up_term, total)
            add(total, left_term, total)
            log(total, total)
            if g is not None:
                np.multiply(total, g, total)
            subtract(lo, total, total)
            if guard:
                np.isinf(lo, inf_buf[:k])
                np.copyto(total, lo, where=inf_buf[:k])
            lo = total
        add(fd[a:b:n + 1], lo, fr[a:b:n + 1])
    return diagonals


def _forward(coords) -> np.ndarray:
    """Accumulated-cost tables of a chunk of (qc, pc) pairs in
    `_sq_dist_tables`' layout under an infinite border, filled by one `_fill`.
    A distance past the float range is inf, and so is every cost through it."""
    with np.errstate(over="ignore"):
        r = _sq_dist_tables(coords, math.inf)
    np.sqrt(r, out=r)  # the whole table: numpy buffers a ufunc over its inner view
    r[0, 0] = 0.0
    _fill(r, r)
    return r


def _walk(flat, w: int, g_count: int, g: int, m: int, n: int, pairs=None) -> tuple:
    """(cost, T) of pair g, walked back from (m, n) through `flat`, a filled table of
    G pairs flattened: cell (i, j) at (i*w + j)*G + g, its diagonal, up and left
    predecessors (w+1)*G, w*G and G before it.  Ties prefer the diagonal, then up
    (no cell is NaN); once i or j is 1 the rest is straight.  `pairs` gets each cell."""
    i, j, diags = m, n, 0
    left, up = g_count, w * g_count
    diag, at = up + left, (m * w + n) * g_count + g
    while i > 1 and j > 1:
        d, u, l = flat[at - diag], flat[at - up], flat[at - left]
        if d <= u and d <= l:
            i, j = i - 1, j - 1
            at, diags = at - diag, diags + 1
        elif u <= l:
            i, at = i - 1, at - up
        else:
            j, at = j - 1, at - left
        if pairs is not None:
            pairs.append((i, j))
    if pairs is not None:
        pairs += [(k, 1) for k in range(i - 1, 0, -1)] + [(1, k) for k in range(j - 1, 0, -1)]
    return flat[(m * w + n) * g_count + g], m + n - 1 - diags


def dtw_many(pairs) -> list[DtwResult | ValueError]:
    """`dtw` of each (q, p) pair, in input order; a pair that `dtw` rejects
    gets the ValueError that `dtw` would raise in its place.

    `_stacks` cuts the pairs, sorted by (m, n), into chunks of (m + 2) x (n + 2)
    tables padded to the largest, each within the cell cap and at most half
    padding; each chunk is one anti-diagonal sweep, so the per-diagonal numpy
    calls are shared by the whole chunk.  Every pair's table is bit-identical
    to the one it would get alone.
    """
    out: list[DtwResult | ValueError | None] = [None] * len(pairs)
    coords = {}
    for index, (q, p) in enumerate(pairs):
        try:
            coords[index] = _coords(q), _coords(p)
        except ValueError as exc:
            out[index] = exc
    for _, chunk in _stacks((index, None, (len(qc) + 2, len(pc) + 2))
                            for index, (qc, pc) in coords.items()):
        r = _forward([coords[index] for index in chunk])
        flat, w, g_count = memoryview(r.reshape(-1)), r.shape[1], len(chunk)
        for g, index in enumerate(chunk):
            qc, pc = coords[index]
            out[index] = DtwResult(*_walk(flat, w, g_count, g, len(qc), len(pc)), pairs[index])
        del r, flat  # free this chunk's table before the next one is built
    return out


def dtw(q: Trajectory, p: Trajectory) -> DtwResult:
    """Globally optimal alignment cost, its path length T and, as `.path`, the path.

    A batch of one through `dtw_many`.  min is exact and each cell adds the same
    two doubles as a row-by-row fill, so cost, T and path depend on neither the
    fill order nor the batch.  Ties prefer the diagonal, then the q-advance."""
    return _ok(dtw_many([(q, p)])[0])


def ldtw(q: Trajectory, p: Trajectory) -> float:
    """DTW cost divided by the optimal (tie-broken) alignment length T."""
    return dtw(q, p).ldtw


def rmse(q: Trajectory, p: Trajectory) -> float:
    """Root mean squared pointwise distance; requires equal lengths.  inf when
    the squared distances overflow."""
    qc, pc = _coords(q), _coords(p)
    if len(qc) != len(pc):
        raise ValueError(
            f"length mismatch: {len(qc)} vs {len(pc)} points "
            "(RMSE needs a strict one-to-one correspondence)")
    with np.errstate(over="ignore"):
        return math.sqrt(float(((qc - pc) ** 2).sum(axis=1).mean()))

"""Writing-order metrics: DTW with an explicit alignment path, LDTW, RMSE.

Distances are Euclidean over (x, y) only; pen states never enter the
distance, and the end-of-sequence marker is stripped before alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traj_core import Trajectory


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
    path: AlignmentPath

    @property
    def ldtw(self) -> float:
        """The cost divided by the alignment length T: the LDTW score."""
        return self.cost / len(self.path)


def _coords(traj: Trajectory) -> np.ndarray:
    xy = traj.drawn_xy()
    if not len(xy):
        raise ValueError("trajectory has no drawn points to align")
    return xy


def _sq_dist_table(qc: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Squared distances |q_i - p_j|^2 at cell (i, j), 1-based, of a zero-padded
    (m+2, n+2) table: the layout that `_diagonals` walks."""
    m, n = len(qc), len(pc)
    dx = qc[:, 0, None] - pc[None, :, 0]
    dy = qc[:, 1, None] - pc[None, :, 1]
    dx *= dx
    dy *= dy
    d = np.zeros((m + 2, n + 2))
    np.add(dx, dy, out=d[1:m + 1, 1:n + 1])
    return d


def _diagonals(m: int, n: int) -> list[tuple[int, int]]:
    """Flat bounds (a, b) of each anti-diagonal i + j = s, s = 2 .. m+n, of a
    flattened (m+2, n+2) table, in fill order.

    The diagonal's cells are the strided slice a:b:n+1; a cell's diagonal, up
    and left predecessors lie n+3, n+2 and 1 flat cells before it.
    """
    bounds = []
    for s in range(2, m + n + 1):
        i0, i1 = max(1, s - n), min(m, s - 1)
        # flat indices of cells (i0, s - i0) and one past (i1, s - i1)
        bounds.append((i0 * (n + 1) + s, i1 * (n + 1) + s + 1))
    return bounds


def dtw(q: Trajectory, p: Trajectory) -> DtwResult:
    """Globally optimal alignment cost and one achieving path.

    The accumulated-cost table is filled one anti-diagonal at a time; min is
    exact and each cell adds the same two doubles as a row-by-row fill, so the
    cost and the path do not depend on the fill order.  Ties during
    backtracking prefer the diagonal step, then the q-advance, then the
    p-advance, which pins the path length T (and hence LDTW).
    """
    qc, pc = _coords(q), _coords(p)
    m, n = len(qc), len(pc)
    d = _sq_dist_table(qc, pc)
    np.sqrt(d, out=d)
    r = np.full((m + 2, n + 2), math.inf)
    r[0, 0] = 0.0
    fd, fr, w = d.ravel(), r.ravel(), n + 2
    scratch = np.empty(min(m, n))
    for a, b in _diagonals(m, n):
        pred = scratch[:(b - a + n) // (n + 1)]  # one entry per cell of the diagonal
        np.minimum(fr[a - w:b - w:n + 1], fr[a - 1:b - 1:n + 1], out=pred)
        np.minimum(pred, fr[a - w - 1:b - w - 1:n + 1], out=pred)
        np.add(pred, fd[a:b:n + 1], out=fr[a:b:n + 1])
    pairs = [(m, n)]
    i, j = m, n
    while i > 1 or j > 1:
        if i == 1:
            j -= 1
        elif j == 1:
            i -= 1
        else:
            k = i * w + j
            diag, up, left = fr.item(k - w - 1), fr.item(k - w), fr.item(k - 1)
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return DtwResult(cost=r.item(m, n), path=AlignmentPath(tuple(pairs)))


def ldtw(q: Trajectory, p: Trajectory) -> float:
    """DTW cost divided by the optimal (tie-broken) alignment length T."""
    return dtw(q, p).ldtw


def rmse(q: Trajectory, p: Trajectory) -> float:
    """Root mean squared pointwise distance; requires equal lengths."""
    qc, pc = _coords(q), _coords(p)
    if len(qc) != len(pc):
        raise ValueError(
            f"length mismatch: {len(qc)} vs {len(pc)} points "
            "(RMSE needs a strict one-to-one correspondence)")
    return math.sqrt(float(((qc - pc) ** 2).sum(axis=1).mean()))

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


def dtw(q: Trajectory, p: Trajectory) -> DtwResult:
    """Globally optimal alignment cost and one achieving path.

    Ties during backtracking prefer the diagonal step, then the q-advance,
    then the p-advance, which pins the path length T (and hence LDTW).
    """
    qc, pc = _coords(q), _coords(p)
    dist = np.sqrt(((qc[:, None, :] - pc[None, :, :]) ** 2).sum(axis=2))
    m, n = dist.shape
    d = dist.tolist()
    acc = [[0.0] * n for _ in range(m)]
    acc[0][0] = d[0][0]
    for j in range(1, n):
        acc[0][j] = acc[0][j - 1] + d[0][j]
    for i in range(1, m):
        row, prev, drow = acc[i], acc[i - 1], d[i]
        row[0] = prev[0] + drow[0]
        for j in range(1, n):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = drow[j] + best
    pairs = [(m, n)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        pairs.append((i + 1, j + 1))
    pairs.reverse()
    return DtwResult(cost=float(acc[-1][-1]), path=AlignmentPath(tuple(pairs)))


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

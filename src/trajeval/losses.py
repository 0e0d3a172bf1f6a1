"""Training objective components: soft-min, SDTW value and gradient,
L1 coordinate loss, weighted pen-state cross-entropy, and the weighted total.

SDTW uses squared Euclidean distances (differentiable everywhere); the hard
DTW/LDTW evaluation metrics keep plain Euclidean distances.

A training step asks for `sdtw` and then `sdtw_grad` on the same pair.  The
backward only reads the finished forward tables, so `sdtw` leaves its tables
in a one-pair slot and an `sdtw_grad` on the same `q` and `p` objects with
an equal `gamma` takes them instead of running the forward again.  The slot
holds at most one pair's two tables, memory the `sdtw` call already peaked
at, and is emptied by every `sdtw_grad` and replaced by every `sdtw`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traj_core import Trajectory
from .seq_metrics import _coords, _fill, _sq_dist_tables

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.5
    lambda2: float = 1.0
    lambda3: float = 1.0 / 6000.0
    class_weights: tuple[float, float, float] = (1.0, 5.0, 1.0)

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.lambda1, self.lambda2, self.lambda3)):
            raise ValueError("loss weights must be finite and non-negative")
        if len(self.class_weights) != 3 or not all(
                0 <= v < math.inf for v in self.class_weights):
            raise ValueError("class_weights must be 3 finite non-negative scalars")
        object.__setattr__(self, "class_weights", tuple(self.class_weights))


@dataclass(frozen=True)
class PredictedPoint:
    x: float
    y: float
    state_probs: tuple[float, float, float]

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite predicted coordinates")
        probs = tuple(float(v) for v in self.state_probs)
        if len(probs) != 3 or not all(0 <= v < math.inf for v in probs):
            raise ValueError("state_probs must be 3 finite non-negative values")
        if abs(sum(probs) - 1.0) > 1e-6:
            raise ValueError(f"state_probs must sum to 1, got {sum(probs)}")
        object.__setattr__(self, "state_probs", probs)


def softmin(values, gamma: float):
    """Stabilized -gamma * log(sum(exp(-a_i / gamma))); tends to min as gamma -> 0.

    values is a sequence of scalars, giving a float, or of same-shape arrays,
    giving their elementwise soft-min.  A minimum of +-inf is returned as is.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    vals = np.asarray(list(values), dtype=float)
    if not len(vals):
        raise ValueError("softmin of an empty collection")
    lo = vals.min(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf where the minimum is infinite
        out = np.where(np.isinf(lo), lo,
                       lo - gamma * np.log(np.exp(-(vals - lo) / gamma).sum(axis=0)))
    return float(out) if out.ndim == 0 else out


class NonFiniteSdtwError(ValueError):
    """The soft-DTW value or gradient is not finite: the squared distances
    are too large for float64 relative to gamma, or, for a value of -inf,
    gamma itself is too large."""


def _soft_dp(q: Trajectory, p: Trajectory, gamma: float):
    """Forward soft-DTW pass: (qc, pc, d, r, diagonals), a batch of one
    through `seq_metrics._fill`.

    d holds squared distances under a zero border and r the soft-DP table,
    both (m+2, n+2); r[m, n] is the value.  An overflow leaves inf in r.
    The fill runs unguarded; only a NaN value shows that a cell's minimum
    was infinite, and then the same r is refilled with `_fill`'s guard.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    qc, pc = _coords(q), _coords(p)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf once a cell overflows
        d = _sq_dist_tables([(qc, pc)], 0.0)
        r = np.full_like(d, math.inf)
        r[0, 0] = 0.0
        diagonals = _fill(d, r, gamma)
        if math.isnan(r[-2, -2, 0]):
            _fill(d, r, gamma, guard=True)
    return qc, pc, d[:, :, 0], r[:, :, 0], diagonals


# The forward of the last `sdtw` call that returned, under one key:
# (q, p, gamma, (qc, pc, d, r, diagonals)).  Only whole-entry dict
# operations touch it, each atomic, so two callers never share the tables
# that `sdtw_grad` overwrites.  The entry holds q and p themselves: while it
# lives their ids cannot be reused, and as Trajectory and its xy are
# immutable, the same objects mean the same coordinates.
_last_forward: dict = {}
_FORWARD = "forward"


def _check_value(value: float, gamma: float) -> None:
    if value == -math.inf:  # each soft-min may fall up to gamma * ln 3 below the minimum
        raise NonFiniteSdtwError(
            f"soft-DTW value is -inf: gamma={gamma} is too large for float64")
    if not math.isfinite(value):
        raise NonFiniteSdtwError(
            f"soft-DTW value is {value}: the squared distances overflow float64")


def sdtw(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> float:
    """Soft-DTW value with squared Euclidean inner distances.

    Leaves its forward tables for an `sdtw_grad(q, p, gamma)` that follows
    on the same objects, replacing any an earlier call left.  Raises
    NonFiniteSdtwError when the value overflows float64, and then leaves
    no tables.
    """
    _last_forward.pop(_FORWARD, None)  # free the old tables before the new ones
    forward = _soft_dp(q, p, gamma)
    value = float(forward[3][-2, -2])
    _check_value(value, gamma)
    _last_forward[_FORWARD] = (q, p, gamma, forward)
    return value


def _take_forward(q: Trajectory, p: Trajectory, gamma: float):
    """Empty the slot; return its tables when `sdtw(q, p, gamma)` left them,
    else run the forward."""
    entry = _last_forward.pop(_FORWARD, None)
    if entry is not None and entry[0] is q and entry[1] is p and entry[2] == gamma:
        return entry[3]
    del entry  # free a stale pair's tables before the forward allocates
    return _soft_dp(q, p, gamma)


# Cells of the backward pass's scratch block, which holds the right and
# diagonal successor weights of a band of rows until d's and r's rows are
# free to take them (128 KiB, a whole table at the loss step's 50 points).
_WEIGHT_BLOCK_CELLS = 1 << 14


def _successor_weights(d: np.ndarray, r: np.ndarray, e: np.ndarray,
                       gamma: float) -> None:
    """Overwrite the interiors of e, d and r with the weights
    exp((r_s - r_c - d_s) / gamma) of each cell c's successor s below, right
    and on the diagonal, in that order.

    r's last row and column must already hold the backward pass's border.
    A successor whose r overflowed to +inf lies on no finite path and gets
    weight 0 (its exponent would be inf - inf).  The table is done in bands
    of rows: a band's right and diagonal weights wait in the scratch block
    until the band's rows of d and r, which no later band reads, take them.
    """
    m, n = r.shape[0] - 2, r.shape[1] - 2
    rows = max(1, min(m, _WEIGHT_BLOCK_CELLS // (2 * n)))
    scratch = np.empty((2, rows, n))
    overflowed = np.empty((rows + 1, n + 1), bool)
    for i0 in range(1, m + 1, rows):
        i1 = min(i0 + rows, m + 1)
        right, diag = scratch[:, :i1 - i0]
        below, here = e[i0:i1, 1:n + 1], r[i0:i1, 1:n + 1]
        over = overflowed[:i1 - i0 + 1]
        np.equal(r[i0:i1 + 1, 1:], math.inf, out=over)
        for out, rs, ds, skip in (
                (below, r[i0 + 1:i1 + 1, 1:n + 1], d[i0 + 1:i1 + 1, 1:n + 1], over[1:, :-1]),
                (right, r[i0:i1, 2:], d[i0:i1, 2:], over[:-1, 1:]),
                (diag, r[i0 + 1:i1 + 1, 2:], d[i0 + 1:i1 + 1, 2:], over[1:, 1:])):
            np.subtract(rs, here, out=out)
            out -= ds
            np.copyto(out, -math.inf, where=skip)
            out /= gamma
            np.exp(out, out=out)
        d[i0:i1, 1:n + 1] = right
        r[i0:i1, 1:n + 1] = diag


def sdtw_grad(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> np.ndarray:
    """Exact gradient of sdtw w.r.t. the (x, y) of every predicted point of p.

    Computed by the standard backward recursion over the soft-DP table
    (Mensch & Blondel 2018): the successor weights are computed for the
    whole table first, then the walk over the anti-diagonals in reverse does
    three products and two sums per diagonal.  When the last `sdtw` or
    `sdtw_grad` call was `sdtw(q, p, gamma)` on these same objects, the
    forward is the tables it left; otherwise it runs here.  Either way no
    tables stay behind.
    Returns an (N, 2) array matching p's drawn points; raises
    NonFiniteSdtwError when the value or the gradient is not finite.
    """
    qc, pc, d, r, diagonals = _take_forward(q, p, gamma)
    m, n = len(qc), len(pc)
    _check_value(float(r[m, n]), gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the gradient below
        r[m + 1, :] = -math.inf
        r[:, n + 1] = -math.inf
        r[m + 1, n + 1] = r[m, n]
        e = np.zeros_like(r)
        e[m + 1, n + 1] = 1.0
        _successor_weights(d, r, e, gamma)
        # each cell holds the weights of its successors below, right and on
        # the diagonal (n+2, 1 and n+3 flat cells on) in e, d and r
        fd, fr, fe, w = d.ravel(), r.ravel(), e.ravel(), n + 2
        multiply, add = np.multiply, np.add
        for a, b in reversed(diagonals):
            cells, right, diag = fe[a:b:n + 1], fd[a:b:n + 1], fr[a:b:n + 1]
            multiply(cells, fe[a + w:b + w:n + 1], cells)
            multiply(right, fe[a + 1:b + 1:n + 1], right)
            multiply(diag, fe[a + w + 1:b + w + 1:n + 1], diag)
            add(cells, right, cells)
            add(cells, diag, cells)
        weights = e[1:m + 1, 1:n + 1]
        # d/dp_j of sum_i w_ij * |q_i - p_j|^2  =  2 * (sum_i w_ij) p_j - 2 * sum_i w_ij q_i
        grad = 2.0 * (weights.sum(axis=0)[:, None] * pc - weights.T @ qc)
    if not np.isfinite(grad).all():
        raise NonFiniteSdtwError(
            "soft-DTW gradient is not finite: the squared distances are too "
            f"large relative to gamma={gamma}")
    return grad


def l1_loss(pred, gt: Trajectory) -> float:
    """Mean |dx| + |dy| under teacher-forced (index-wise) correspondence."""
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs "
                         f"{len(gt)} ground-truth points")
    total = math.fsum(abs(pp.x - gx) + abs(pp.y - gy)
                      for pp, (gx, gy) in zip(pred, gt.xy.tolist()))
    return total / len(pred)


def wce_loss(pred, gt: Trajectory, w: LossWeights = LossWeights()) -> float:
    """Cross-entropy over pen states weighted by w.class_weights, mean per point."""
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs "
                         f"{len(gt)} ground-truth points")
    total = 0.0
    for pp, cls in zip(pred, gt.state.tolist()):
        prob = max(pp.state_probs[cls], _PROB_FLOOR)
        total += -w.class_weights[cls] * math.log(prob)
    return total / len(pred)


def total_loss(l1: float, wce: float, sdtw_value: float,
               w: LossWeights = LossWeights()) -> float:
    """Weighted sum lambda1*L1 + lambda2*Lwce + lambda3*Lsdtw."""
    for name, v in (("l1", l1), ("wce", wce), ("sdtw", sdtw_value)):
        if not math.isfinite(v):
            raise ValueError(f"{name} component is not finite: {v}")
    return w.lambda1 * l1 + w.lambda2 * wce + w.lambda3 * sdtw_value

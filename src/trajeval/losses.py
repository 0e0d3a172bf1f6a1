"""Training objective components: soft-min, SDTW value and gradient,
L1 coordinate loss, weighted pen-state cross-entropy, and the weighted total.

SDTW uses squared Euclidean distances (differentiable everywhere); the hard
DTW/LDTW evaluation metrics keep plain Euclidean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traj_core import Trajectory
from .seq_metrics import _coords, _diagonals

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.5
    lambda2: float = 1.0
    lambda3: float = 1.0 / 6000.0
    class_weights: tuple[float, float, float] = (1.0, 5.0, 1.0)

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be non-negative")
        if len(self.class_weights) != 3 or min(self.class_weights) < 0:
            raise ValueError("class_weights must be 3 non-negative scalars")
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
        if len(probs) != 3 or min(probs) < 0:
            raise ValueError("state_probs must be 3 non-negative values")
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


def _sq_dist_table(qc: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Squared distances |q_i - p_j|^2 at cell (i, j), 1-based, of a zero-padded
    (m+2, n+2) table: the layout that `seq_metrics._diagonals` walks."""
    m, n = len(qc), len(pc)
    dx = qc[:, 0, None] - pc[None, :, 0]
    dy = qc[:, 1, None] - pc[None, :, 1]
    dx *= dx
    dy *= dy
    d = np.zeros((m + 2, n + 2))
    np.add(dx, dy, out=d[1:m + 1, 1:n + 1])
    return d


def _soft_dp(q: Trajectory, p: Trajectory, gamma: float):
    """Forward soft-DTW pass: (qc, pc, d, r, diagonals).

    d holds squared distances and r the soft-DP table, both (m+2, n+2) with
    q's point i and p's point j at cell (i, j), 1-based; r[m, n] is the value.
    diagonals holds the flat bounds (a, b) of each anti-diagonal in fill
    order, as `seq_metrics._diagonals` gives them for hard DTW.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    qc, pc = _coords(q), _coords(p)
    m, n = len(qc), len(pc)
    d = _sq_dist_table(qc, pc)
    r = np.full((m + 2, n + 2), math.inf)
    r[0, 0] = 0.0
    fd, fr, w = d.ravel(), r.ravel(), n + 2
    diagonals = _diagonals(m, n)
    for a, b in diagonals:
        fr[a:b:n + 1] = fd[a:b:n + 1] + softmin(
            (fr[a - w - 1:b - w - 1:n + 1], fr[a - w:b - w:n + 1],
             fr[a - 1:b - 1:n + 1]), gamma)
    return qc, pc, d, r, diagonals


def sdtw(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> float:
    """Soft-DTW value with squared Euclidean inner distances."""
    r = _soft_dp(q, p, gamma)[3]
    return float(r[-2, -2])


def sdtw_grad(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> np.ndarray:
    """Exact gradient of sdtw w.r.t. the (x, y) of every predicted point of p.

    Computed by the standard backward recursion over the soft-DP table, one
    anti-diagonal at a time in reverse; returns an (N, 2) array matching p's
    drawn points.
    """
    qc, pc, d, r, diagonals = _soft_dp(q, p, gamma)
    m, n = len(qc), len(pc)
    r[m + 1, :] = -math.inf
    r[:, n + 1] = -math.inf
    r[m + 1, n + 1] = r[m, n]
    e = np.zeros_like(r)
    e[m + 1, n + 1] = 1.0
    fd, fr, fe, w = d.ravel(), r.ravel(), e.ravel(), n + 2
    for a, b in reversed(diagonals):
        # successors below, right and diagonal: n+2, 1 and n+3 flat cells on
        fe[a:b:n + 1] = sum(
            np.exp((fr[a + o:b + o:n + 1] - fr[a:b:n + 1] - fd[a + o:b + o:n + 1])
                   / gamma) * fe[a + o:b + o:n + 1]
            for o in (w, 1, w + 1))
    weights = e[1:m + 1, 1:n + 1]
    # d/dp_j of sum_i w_ij * |q_i - p_j|^2  =  2 * (sum_i w_ij) p_j - 2 * sum_i w_ij q_i
    return 2.0 * (weights.sum(axis=0)[:, None] * pc - weights.T @ qc)


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

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
from .seq_metrics import _coords

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SoftParams:
    """Smoothing temperature for the soft minimum."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")


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


def softmin(values, gamma: float) -> float:
    """Stabilized -gamma * log(sum(exp(-a_i / gamma))); tends to min as gamma -> 0."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("softmin of an empty collection")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    m = min(vals)
    if math.isinf(m):
        return m
    return m - gamma * math.log(math.fsum(math.exp(-(v - m) / gamma) for v in vals))


def _sq_dist_matrix(q: Trajectory, p: Trajectory) -> np.ndarray:
    qc, pc = _coords(q), _coords(p)
    return ((qc[:, None, :] - pc[None, :, :]) ** 2).sum(axis=2)


def _forward_table(dist: np.ndarray, gamma: float) -> np.ndarray:
    m, n = dist.shape
    table = np.full((m + 1, n + 1), math.inf)
    table[0, 0] = 0.0
    exp, log = math.exp, math.log
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            r1, r2, r3 = table[i - 1, j - 1], table[i - 1, j], table[i, j - 1]
            lo = min(r1, r2, r3)
            total = (exp(-(r1 - lo) / gamma) + exp(-(r2 - lo) / gamma)
                     + exp(-(r3 - lo) / gamma))
            table[i, j] = dist[i - 1, j - 1] + lo - gamma * log(total)
    return table


def sdtw(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> float:
    """Soft-DTW value with squared Euclidean inner distances."""
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    dist = _sq_dist_matrix(q, p)
    return float(_forward_table(dist, gamma)[-1, -1])


def sdtw_grad(q: Trajectory, p: Trajectory, gamma: float = 1.0) -> np.ndarray:
    """Exact gradient of sdtw w.r.t. the (x, y) of every predicted point of p.

    Computed by the standard backward recursion over the soft-DP table;
    returns an (N, 2) array matching p's drawn points.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    qc, pc = _coords(q), _coords(p)
    dist = ((qc[:, None, :] - pc[None, :, :]) ** 2).sum(axis=2)
    m, n = dist.shape
    r = np.full((m + 2, n + 2), -math.inf)
    r[:m + 1, :n + 1] = _forward_table(dist, gamma)
    r[m + 1, n + 1] = r[m, n]
    d_pad = np.zeros((m + 2, n + 2))
    d_pad[1:m + 1, 1:n + 1] = dist
    e = np.zeros((m + 2, n + 2))
    e[m + 1, n + 1] = 1.0
    exp = math.exp
    for i in range(m, 0, -1):
        for j in range(n, 0, -1):
            a = exp((r[i + 1, j] - r[i, j] - d_pad[i + 1, j]) / gamma)
            b = exp((r[i, j + 1] - r[i, j] - d_pad[i, j + 1]) / gamma)
            c = exp((r[i + 1, j + 1] - r[i, j] - d_pad[i + 1, j + 1]) / gamma)
            e[i, j] = a * e[i + 1, j] + b * e[i, j + 1] + c * e[i + 1, j + 1]
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


def wce_loss(pred, gt: Trajectory, weights=(1.0, 5.0, 1.0)) -> float:
    """Class-weighted cross-entropy over pen states, mean per point."""
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs "
                         f"{len(gt)} ground-truth points")
    if len(weights) != 3:
        raise ValueError("weights must cover the 3 pen-state classes")
    total = 0.0
    for pp, cls in zip(pred, gt.state.tolist()):
        prob = max(pp.state_probs[cls], _PROB_FLOOR)
        total += -weights[cls] * math.log(prob)
    return total / len(pred)


def total_loss(l1: float, wce: float, sdtw_value: float,
               w: LossWeights = LossWeights()) -> float:
    """Weighted sum lambda1*L1 + lambda2*Lwce + lambda3*Lsdtw."""
    for name, v in (("l1", l1), ("wce", wce), ("sdtw", sdtw_value)):
        if not math.isfinite(v):
            raise ValueError(f"{name} component is not finite: {v}")
    return w.lambda1 * l1 + w.lambda2 * wce + w.lambda3 * sdtw_value

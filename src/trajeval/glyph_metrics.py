"""Glyph-fidelity scoring: mask IoU and adaptive IoU with dynamic dilation.

The adaptive variant repeatedly widens the width-1 predicted mask with a
3x3 dilation and keeps the best IoU against the ground-truth mask, which
removes the bias introduced by variable stroke widths in real images.

The sweep stops at the first k where |g| / |g ∪ W_k| is at most the best IoU
so far (W_k is the k-times-dilated prediction).  W_k only grows with k, so
every later IoU is at most that bound, and correctly rounded division keeps
the order in floating point; a later tie cannot change the smallest-argmax
`best_k`.  The stop is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import BinaryMask, dilate3x3


def _overlap(g: BinaryMask, p: BinaryMask) -> tuple[int, int]:
    """|g ∩ p| and |g ∪ p| of two same-sized masks whose union is not empty, as
    Python ints: a score is then a Python float, which `round` rounds as the
    reports do (numpy's `round` can take the other side of a decimal tie)."""
    if g.bits.shape != p.bits.shape:
        raise ValueError(
            f"mask dimensions differ: {g.width}x{g.height} vs {p.width}x{p.height}")
    inter = int(np.count_nonzero(g.bits & p.bits))
    union = int(np.count_nonzero(g.bits | p.bits))
    if union == 0:
        raise ValueError("undefined IoU: both masks are empty")
    return inter, union


def iou(g: BinaryMask, p: BinaryMask) -> float:
    """Intersection-over-union of two same-sized masks."""
    inter, union = _overlap(g, p)
    return inter / union


@dataclass(frozen=True)
class AiouResult:
    score: float
    best_k: int


def aiou(g: BinaryMask, p: BinaryMask, k_max: int = 10) -> AiouResult:
    """Best IoU over k in [0, k_max] dilations of the prediction mask.

    best_k is the smallest k attaining the maximum.  The sweep stops once
    |g| / |g ∪ W_k| is at most the best IoU so far, or at k = 0 for an empty
    prediction (which no dilation changes); no later k could then win, so
    score and best_k equal the full sweep's.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    g_count = np.count_nonzero(g.bits)
    inter, union = _overlap(g, p)
    best, best_k, widened = inter / union, 0, p
    for k in range(1, k_max + 1 if p.bits.any() else 1):  # no dilation widens an empty mask
        if g_count / union <= best:
            break
        widened = dilate3x3(widened, 1)
        inter, union = _overlap(g, widened)
        if inter / union > best:  # strictly greater: the smallest k keeps a tie
            best, best_k = inter / union, k
    return AiouResult(best, best_k)

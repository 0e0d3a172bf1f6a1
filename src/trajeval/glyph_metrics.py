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

from .raster import BinaryMask, _dilate_step, _ones, _pack
from .traj_core import _ok, _stacks, _whole


@dataclass(frozen=True)
class AiouResult:
    score: float
    best_k: int


def _aiou_many(pairs, k_max: int) -> list[tuple[float, AiouResult] | ValueError]:
    """(IoU, AIoU) of each (g, p) mask pair, or its ValueError: one given for p,
    else for g (a render error), else a shape or both-empty error.  The pairs of
    each `_stacks` stack sweep together on `_pack`ed rows, each to its own stop;
    the counts are exact int64s, so each ratio is the Python int division's."""
    out = [p if isinstance(p, ValueError) else g if isinstance(g, ValueError)
           else None if g.bits.shape == p.bits.shape else ValueError(
               f"mask dimensions differ: {g.width}x{g.height} vs {p.width}x{p.height}")
           for g, p in pairs]
    for (_, width), stack in _stacks((i, g.bits.shape, g.bits.shape)
                                     for i, (g, _) in enumerate(pairs) if out[i] is None):
        g, widened = (_pack(np.array([pairs[i][side].bits for i in stack])) for side in (0, 1))
        g_count, inter, union = _ones(g), _ones(g & widened), _ones(g | widened)
        best, best_k = inter / np.maximum(union, 1), np.zeros(len(stack), np.int64)
        ious, blanks = best.tolist(), (union == 0).tolist()
        live = np.flatnonzero(union + inter > g_count)  # |p| > 0: a dilation widens p
        g, widened = g[live], widened[live]
        for k in range(1, k_max + 1):
            keep = g_count[live] / union[live] > best[live]
            if not keep.all():
                live, g, widened = live[keep], g[keep], widened[keep]
            if not len(live):
                break
            widened = _dilate_step(widened, width)
            inter, union[live] = _ones(g & widened), _ones(g | widened)
            ratio = inter / union[live]
            up = ratio > best[live]  # strictly greater: the smallest k keeps a tie
            best[live[up]], best_k[live[up]] = ratio[up], k
        for i, first, score, at, blank in zip(stack, ious, best.tolist(), best_k.tolist(), blanks):
            out[i] = (ValueError("undefined IoU: both masks are empty") if blank
                      else (first, AiouResult(score, at)))
    return out


def iou(g: BinaryMask, p: BinaryMask) -> float:
    """Intersection-over-union of two same-sized masks, as a Python float (the
    reports' `round` and numpy's can take opposite sides of a decimal tie)."""
    return _ok(_aiou_many([(g, p)], 0)[0])[0]


def aiou(g: BinaryMask, p: BinaryMask, k_max: int = 10) -> AiouResult:
    """Best IoU over k in [0, k_max] dilations of the prediction mask, with
    best_k the smallest k attaining it; the sweep stops early (see the module
    docstring) with the full sweep's result.  k_max must be a whole number >= 0."""
    return _ok(_aiou_many([(g, p)], _whole(k_max, "k_max"))[0])[1]

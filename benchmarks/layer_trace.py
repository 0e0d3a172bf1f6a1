"""Span tracing of trajeval's public functions from outside the package.

`Tracer.install` replaces each traced function in every namespace of the
package that binds it, so a call is recorded whichever module makes it.
`from .raster import rasterize` binds a separate name in each importing
module, which is why `bench.rasterize` and `error_sim.rasterize` are
wrapped separately; both record spans named `raster.rasterize`.  A span is
kept in memory as (name, caller, parent, start, end, failed) plus, for the
few functions whose counts need them, the call's arguments and result.
`summarize` turns the spans of one round into per-layer metrics after the
round, so counting adds nothing to the timed calls.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

PACKAGE = "trajeval"

# layer -> function -> per-layer metrics reported for it (see README.md)
TABLE = {
    "traj_core": {
        "load_trajectory": ("calls", "self_s", "failed"),
        "normalize_to_canvas": ("calls", "self_s"),
        "resample": ("calls", "self_s"),
    },
    "raster": {
        "rasterize": ("calls", "self_s", "failed", "repeat_share"),
        "dilate3x3": ("calls", "self_s"),
        "read_pgm": ("self_s",),
        "binarize": ("self_s",),
    },
    "glyph_metrics": {
        "aiou": ("calls", "self_s", "useful_share"),
        "iou": ("calls", "self_s"),
    },
    "seq_metrics": {
        "dtw": ("calls", "self_s", "cells", "cells_per_s"),
        "rmse": ("calls", "self_s", "failed"),
    },
    "losses": {
        "sdtw": ("calls", "self_s", "cells"),
        "sdtw_grad": ("calls", "self_s", "cells"),
        "l1_loss": ("self_s",),
        "wce_loss": ("self_s",),
        "total_loss": ("self_s",),
    },
    "error_sim": {
        name: ("calls", "self_s", "failed")
        for name in ("insert_strokes", "delete_strokes", "drift_points",
                     "drift_strokes", "widen_strokes", "change_sample_rate")
    },
    "bench": {
        "sensitivity_run": ("self_s",),
        "invariance_run": ("self_s",),
        "reports_to_csv": ("self_s",),
        "make_synthetic_corpus": ("self_s",),
    },
    "cli": {"main": ("self_s",)},
}

UNITS = {"calls": "count", "failed": "count", "cells": "count", "self_s": "s",
         "self_share": "ratio", "repeat_share": "ratio", "useful_share": "ratio",
         "cells_per_s": "cells/s"}

# spans whose arguments (and result) summarize() reads for its counts
_KEEP_CALL = {"raster.rasterize", "glyph_metrics.aiou", "seq_metrics.dtw",
              "losses.sdtw", "losses.sdtw_grad"}

_NAME, _CALLER, _PARENT, _START, _END, _FAILED, _CALL = range(7)


class Tracer:
    """Records one span per call of the TABLE functions while installed."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self.spans: list[list] = []

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(prefix)}
        originals = {}
        for layer, functions in TABLE.items():
            home = modules[prefix + layer]
            for fname in functions:
                originals[id(getattr(home, fname))] = f"{layer}.{fname}"
        for mod_name, module in modules.items():
            caller = mod_name[len(prefix):] or PACKAGE
            for attr, value in list(vars(module).items()):
                span_name = originals.get(id(value))
                if span_name is not None:
                    setattr(module, attr, self._wrap(span_name, caller, value))
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, span_name: str, caller: str, fn):
        spans, local = self, self._local
        keep = span_name in _KEEP_CALL

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [span_name, caller, stack[-1] if stack else -1, 0.0, 0.0,
                      False, None]
            stack.append(len(spans.spans))
            spans.spans.append(record)
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[_END] = perf_counter()
                record[_FAILED] = True
                raise
            finally:
                stack.pop()
            record[_END] = perf_counter()
            if keep:
                record[_CALL] = (args, kwargs, result)
            return result

        return traced


def _drawn_count(traj) -> int:
    return len(traj.drawn_points())


def _traj_key(traj, side) -> tuple:
    return (side if side is not None else traj.canvas_side,
            tuple((p.x, p.y, p.state.value) for p in traj.points))


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one round, keyed by TABLE metric name.

    Self time is a span's duration minus the durations of its child spans.
    Functions that were never called report zero counts and times; a share
    whose base is zero reports 0.0.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, rec in enumerate(spans):
        name = rec[_NAME]
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + rec[_FAILED]
        self_s[name] = self_s.get(name, 0.0) + (rec[_END] - rec[_START]) - child[i]

    seen, repeats, raster_calls = set(), 0, 0
    useful = attempted = 0
    cells = {"seq_metrics.dtw": 0, "losses.sdtw": 0, "losses.sdtw_grad": 0}
    for rec in spans:
        if rec[_CALL] is None:
            continue
        name, (args, kwargs, result) = rec[_NAME], rec[_CALL]
        if name == "raster.rasterize":
            side = args[1] if len(args) > 1 else kwargs.get("side")
            key = _traj_key(args[0], side)
            raster_calls += 1
            repeats += key in seen
            seen.add(key)
        elif name == "glyph_metrics.aiou":
            k_max = args[2] if len(args) > 2 else kwargs.get("k_max", 10)
            useful += result.best_k + 1
            attempted += k_max + 1
        else:
            q = args[0] if args else kwargs["q"]
            p = args[1] if len(args) > 1 else kwargs["p"]
            passes = 2 if name == "losses.sdtw_grad" else 1  # forward + backward
            cells[name] += passes * _drawn_count(q) * _drawn_count(p)

    out: dict[str, float] = {}
    for layer, functions in TABLE.items():
        for fname, metrics in functions.items():
            name = f"{layer}.{fname}"
            for metric in metrics:
                key = f"{name}.{metric}"
                if metric == "calls":
                    out[key] = calls.get(name, 0)
                elif metric == "failed":
                    out[key] = failed.get(name, 0)
                elif metric == "self_s":
                    out[key] = self_s.get(name, 0.0)
                    out[f"{name}.self_share"] = out[key] / wall_s if wall_s > 0 else 0.0
                elif metric == "cells":
                    out[key] = cells[name]
                elif metric == "repeat_share":
                    out[key] = repeats / raster_calls if raster_calls else 0.0
                elif metric == "useful_share":
                    out[key] = useful / attempted if attempted else 0.0
                elif metric == "cells_per_s":
                    t = self_s.get(name, 0.0)
                    out[key] = cells[name] / t if t > 0 else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.attributed_share"] = sum(self_s.values()) / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out


def table_units() -> dict[str, str]:
    """Every TABLE metric, name -> unit; each self time also as a share."""
    out = {}
    for layer, functions in TABLE.items():
        for fname, metrics in functions.items():
            for metric in metrics:
                out[f"{layer}.{fname}.{metric}"] = UNITS[metric]
                if metric == "self_s":
                    out[f"{layer}.{fname}.self_share"] = UNITS["self_share"]
    return out


def count_names() -> list[str]:
    """Metrics that must repeat exactly for a fixed seed."""
    return [f"{layer}.{fname}.{metric}"
            for layer, functions in TABLE.items()
            for fname, metrics in functions.items()
            for metric in metrics
            if metric in ("calls", "failed", "cells", "repeat_share", "useful_share")] \
        + ["trace.spans"]


def spans_as_rows(spans: list[list]) -> list[dict]:
    """Spans in a JSON-ready form, times relative to the first span's start."""
    t0 = spans[0][_START] if spans else 0.0
    return [{"id": i, "name": rec[_NAME], "caller": rec[_CALLER],
             "parent": rec[_PARENT], "start": rec[_START] - t0,
             "end": rec[_END] - t0, "failed": rec[_FAILED]}
            for i, rec in enumerate(spans)]

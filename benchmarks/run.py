#!/usr/bin/env python3
"""Benchmark of trajeval: three closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload sweep-synth --seed 1 --seconds 40 --trace 0

Run it from the repository root.  The package is imported from ./src, so
each checkout measures its own code, and TRAJEVAL_THREADS is left as the
caller set it (unset: the package's default path).  A run builds the
workload's inputs from --seed, runs one untimed warm-up round and then
repeats the same round until --seconds have passed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics (README.md has the
table); its spans come from wrappers installed from outside the package
(layer_trace.py).  Every output is checked; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}, and the
full record, with run metadata and every metric, is written under
benchmarks/results/.  Exit code 1 means an output check failed, 2 that the
package could not be found or imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "trajeval"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))
import layer_trace  # noqa: E402

# Set-up is timed as an import and a build, each repeated evenly through the
# run; setup_s is the sum of their medians.  The repetitions share the run's
# --seconds with the rounds, so they are kept few enough (about a fifth of a
# 30-second run) that the rounds get most of it.
SETUP_REPS = {"import": 15, "build": 15}
MIN_ROUNDS = 3   # timed rounds per run, however short --seconds is
CANVAS = 64
K_MAX = 10

SENSITIVITY = ("stroke-insert", "stroke-delete", "point-drift", "stroke-drift")
INVARIANCE = ("stroke-width", "sample-rate")

# Every glyph of a workload has the same stroke and point counts, so the work
# in a round does not depend on the seed, which moves the geometry only.
# Default glyphs draw 6-8 strokes of 5-9 points; at 16 to 64 glyphs that
# alone spreads the DTW work across seeds by 5-10% (quartile distance).
GLYPH = {"stroke_range": (7, 7), "points_range": (7, 7)}            # 49 points
LONG_GLYPH = {"stroke_range": (7, 7), "points_range": (34, 34),
              "step_range": (1.2, 2.5)}                             # 238 points

# name -> (unit, better, bound); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "items_per_s": ("items/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}


def per_layer_contract() -> dict[str, str]:
    """Per-layer metrics of BENCHMARK.json, name -> unit: the README table.

    The self-time shares are printed and recorded only: they add up to
    about 1, so a faster layer raises every other layer's share.
    """
    out = {key: unit for key, unit in layer_trace.table_units().items()
           if not key.endswith(".self_share")}
    out["cli.evaluate.empty_cell_share"] = "ratio"
    out["trace.overhead_share"] = "ratio"
    return out


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (no package, failed import)."""


def load_package() -> SimpleNamespace:
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchmarkError(f"no trajeval package at {PACKAGE_DIR}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import trajeval
        import trajeval.cli
    except Exception as exc:
        raise BenchmarkError(f"importing trajeval failed: {exc!r}") from exc
    if Path(trajeval.__file__).resolve().parent != PACKAGE_DIR:
        raise BenchmarkError(f"imported trajeval from {trajeval.__file__}, "
                             f"not from {PACKAGE_DIR}")
    return SimpleNamespace(**{name: getattr(trajeval, name) for name in (
        "bench", "cli", "error_sim", "glyph_metrics", "losses", "raster",
        "seq_metrics", "traj_core")})


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _perturb(tj, kind: str, traj, magnitude, seed: int):
    es = tj.error_sim
    if kind == "stroke-insert":
        return es.insert_strokes(traj, int(magnitude), seed)
    if kind == "stroke-delete":
        return es.delete_strokes(traj, int(magnitude), seed)
    if kind == "point-drift":
        return es.drift_points(traj, float(magnitude), seed)
    return es.drift_strokes(traj, float(magnitude), seed)


# --- workloads -----------------------------------------------------------------

class SweepSynth:
    """The acceptance workload: every sweep over a seeded synthetic corpus.

    Rasterize, AIoU dilation and perturbation do most of the work on short
    sequences, and the ground-truth mask is rasterized again at every
    magnitude, so a reuse or caching change shows here.  Parsing and the
    losses do no work.  An item is one glyph through one sweep.
    """

    name = "sweep-synth"
    glyphs = 8
    items = glyphs * (len(SENSITIVITY) + len(INVARIANCE))

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, tj) -> dict:
        kinds = SENSITIVITY + INVARIANCE
        return {"glyphs": self.glyphs, "glyph_shape": GLYPH, "points_per_glyph": 50,
                "canvas": CANVAS, "k_max": K_MAX, "sweeps": list(kinds),
                "grids": {k: list(tj.bench.DEFAULT_GRIDS[k]) for k in kinds},
                "metrics": "defaults of sensitivity_run and invariance_run"}

    def build(self, tj, workdir: Path):
        return tj.bench.make_synthetic_corpus(self.glyphs, seed=self.seed, **GLYPH)

    def run_round(self, tj, corpus):
        outputs, parts = {}, {}
        for kind in SENSITIVITY + INVARIANCE:
            t0 = perf_counter()
            if kind in SENSITIVITY:
                reports = tj.bench.sensitivity_run(corpus, kind, seed=self.seed)
            else:
                reports = tj.bench.invariance_run(corpus, kind, seed=self.seed)
            outputs[kind] = tj.bench.reports_to_csv(reports)
            parts[f"sweep.{kind}_s"] = perf_counter() - t0
        return outputs, parts

    def digest(self, outputs) -> str:
        return _sha256(*(f"{k}\n{v}".encode() for k, v in outputs.items()))

    def check(self, tj, corpus, outputs) -> list[tuple[int, str]]:
        problems = []
        cells = {}
        for kind, text in outputs.items():
            for line in text.splitlines()[1:]:
                metric, magnitude, *numbers = line.split(",")
                if not all(math.isfinite(float(v)) for v in numbers):
                    problems.append((self.glyphs, f"{kind}: non-finite cell in {line!r}"))
                cells[(kind, metric, magnitude)] = numbers[0]
        # one seeded (kind, magnitude) cell recomputed with direct library calls
        rnd = random.Random(self.seed)
        kind = rnd.choice(SENSITIVITY)
        magnitude = rnd.choice(tj.bench.DEFAULT_GRIDS[kind])
        aiou_vals, ldtw_vals = [], []
        for i, glyph in enumerate(corpus):
            try:
                pred = _perturb(tj, kind, glyph, magnitude, tj.bench.derive_seed(self.seed, i))
            except ValueError:
                continue
            masks = tj.raster.rasterize(glyph), tj.raster.rasterize(pred)
            aiou_vals.append(tj.glyph_metrics.aiou(*masks, K_MAX).score)
            ldtw_vals.append(tj.seq_metrics.ldtw(glyph, pred))
        for metric, vals in (("aiou", aiou_vals), ("ldtw", ldtw_vals)):
            want = f"{math.fsum(vals) / len(vals):.6f}"
            got = cells.get((kind, metric, f"{float(magnitude):.6f}"))
            if got != want:
                problems.append((self.glyphs, f"{kind} {metric} at {magnitude}: "
                                 f"CSV has {got}, direct calls give {want}"))
        return problems


class EvaluateLong:
    """`trajeval evaluate` in-process over generated directories of long pairs.

    File parsing and normalize_to_canvas run only here, and DTW is quadratic
    at this length, so the same dtw and rasterize run at about 5x the length
    of sweep-synth with little reuse.  An item is one scored pair.

    Each pair has a directory of its own, scored by its own evaluate call, so
    each pair is a timed part of the round (see README.md, "Why minima").
    """

    name = "evaluate-long"
    METRICS = ("aiou", "iou", "ldtw", "dtw", "rmse")
    GROUP = 1  # pairs per directory; one evaluate call scores one directory
    pairs = items = 30

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, tj) -> dict:
        return {"pairs": self.pairs, "pairs_per_directory": self.GROUP,
                "glyph_shape": LONG_GLYPH, "points_per_glyph": 239,
                "canvas": CANVAS, "k_max": K_MAX, "metrics": list(self.METRICS),
                "flags": ["--normalize", "--rmse-resample", "--format", "json"],
                "ground_truth": "pair i: PGM of widen_strokes(k=1+i%3) if i%5==4, "
                                "else points form (i even) or strokes form (i odd)",
                "predictions": "error kind i%4 of stroke-insert, stroke-delete, "
                               "point-drift, stroke-drift at DEFAULT_GRIDS[kind][(i//4)%len]"}

    def build(self, tj, workdir: Path) -> list[dict]:
        groups = []
        for k in range(0, self.pairs, self.GROUP):
            group = {"gt": workdir / "gt" / f"g{k}", "pred": workdir / "pred" / f"g{k}",
                     "out": workdir / f"scores{k}.json"}
            group["gt"].mkdir(parents=True)
            group["pred"].mkdir(parents=True)
            groups.append(group)
        corpus = tj.bench.make_synthetic_corpus(self.pairs, seed=self.seed, **LONG_GLYPH)
        rnd = random.Random(self.seed)
        for i, gt in enumerate(corpus):
            kind = SENSITIVITY[i % 4]
            grid = tj.bench.DEFAULT_GRIDS[kind]
            pred = _perturb(tj, kind, gt, grid[(i // 4) % len(grid)], rnd.getrandbits(32))
            group, stem = groups[i // self.GROUP], f"pair{i:03d}"
            if i % 5 == 4:
                image = tj.error_sim.widen_strokes(gt, 1 + i % 3)
                tj.raster.write_pgm(image, group["gt"] / f"{stem}.pgm")
            else:
                tj.traj_core.save_trajectory(gt, group["gt"] / f"{stem}.json",
                                             form="points" if i % 2 == 0 else "strokes")
            tj.traj_core.save_trajectory(pred, group["pred"] / f"{stem}.json", form="points")
        return groups

    def run_round(self, tj, groups):
        outputs, parts = [], {}
        for k, group in enumerate(groups):
            t0 = perf_counter()
            code = tj.cli.main(["evaluate", str(group["gt"]), str(group["pred"]),
                                "--metrics", ",".join(self.METRICS), "--normalize",
                                "--rmse-resample", "--format", "json",
                                "--out", str(group["out"])])
            if code != 0:
                raise RuntimeError(f"trajeval evaluate exited with code {code}")
            outputs.append(group["out"].read_bytes())
            parts[f"group{k}"] = perf_counter() - t0
        return outputs, parts

    def digest(self, outputs) -> str:
        return _sha256(*outputs)

    @staticmethod
    def _rows(outputs) -> list[dict]:
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")
        return [row for text in outputs
                for row in json.loads(text, parse_constant=reject)["rows"]]

    def empty_cell_share(self, outputs) -> float:
        rows = self._rows(outputs)
        empty = sum(row[m] is None for row in rows for m in self.METRICS)
        return empty / (len(rows) * len(self.METRICS))

    def _direct(self, tj, gt_file: Path, pred_file: Path) -> dict:
        tc, r, sm = tj.traj_core, tj.raster, tj.seq_metrics
        pred = tc.normalize_to_canvas(tc.load_trajectory(pred_file), CANVAS)
        gt = None
        if gt_file.suffix == ".pgm":
            g = r.binarize(r.read_pgm(gt_file))
        else:
            gt = tc.normalize_to_canvas(tc.load_trajectory(gt_file), CANVAS)
            g = r.rasterize(gt, CANVAS)
        p = r.rasterize(pred, g.width)
        want = {"aiou": tj.glyph_metrics.aiou(g, p, K_MAX).score,
                "iou": tj.glyph_metrics.iou(g, p),
                "dtw": None, "ldtw": None, "rmse": None}
        if gt is not None:
            want["dtw"] = sm.dtw(gt, pred).cost
            want["ldtw"] = sm.ldtw(gt, pred)
            target = _resampled_to(tj, pred, len(gt.drawn_points()))
            if len(target.drawn_points()) == len(gt.drawn_points()):
                want["rmse"] = sm.rmse(gt, target)
            # else the resampling misses the count and the cell stays empty
        return want

    def check(self, tj, groups, outputs) -> list[tuple[int, str]]:
        try:
            rows = self._rows(outputs)
        except (ValueError, KeyError, TypeError) as exc:
            return [(self.pairs, f"evaluate output is not valid JSON: {exc}")]
        if [row["sample"] for row in rows] != [f"pair{i:03d}" for i in range(self.pairs)]:
            return [(self.pairs, "evaluate output does not list every pair once")]
        problems = []
        # every row: about one pair in 30 gets an RMSE value after resampling
        for i in range(self.pairs):
            stem, group = rows[i]["sample"], groups[i // self.GROUP]
            gt_file = next(group["gt"].glob(stem + ".*"))
            want = self._direct(tj, gt_file, group["pred"] / f"{stem}.json")
            for metric, value in want.items():
                got = rows[i][metric]
                if got != (None if value is None else round(value, 6)):
                    problems.append((1, f"{stem} {metric}: output {got}, "
                                     f"direct calls give {value}"))
        return problems


class TrainSdtw:
    """The loss step a trainer calls, over seeded (gt, drifted pred) pairs.

    Only this workload runs the losses, whose soft-min DP loop is separate
    from hard DTW's; rasterize, parsing and perturbation do no work in its
    rounds, so changes to them should not move it.  An item is one step.
    """

    name = "train-sdtw"
    steps = items = 8

    def __init__(self, seed: int):
        self.seed = seed

    def params(self, tj) -> dict:
        return {"steps": self.steps, "glyph_shape": GLYPH, "points_per_glyph": 50,
                "canvas": CANVAS, "gamma": 1.0, "drift_px": [0.5, 3.0],
                "step": "sdtw, sdtw_grad, l1_loss, wce_loss, total_loss"}

    def build(self, tj, workdir: Path):
        corpus = tj.bench.make_synthetic_corpus(self.steps, seed=self.seed, **GLYPH)
        rnd = random.Random(self.seed)
        pairs = []
        for gt in corpus:
            pred = tj.error_sim.drift_points(gt, rnd.uniform(0.5, 3.0), rnd.getrandbits(32))
            predicted = []
            for point, truth in zip(pred.points, gt.points):
                weights = [rnd.random() for _ in range(3)]
                weights[truth.state.value] += 4.0
                total = sum(weights)
                predicted.append(tj.losses.PredictedPoint(
                    point.x, point.y, tuple(w / total for w in weights)))
            pairs.append((gt, pred, predicted))
        return pairs

    def run_round(self, tj, pairs):
        losses = tj.losses
        out, parts = [], {}
        for i, (gt, pred, predicted) in enumerate(pairs):
            t0 = perf_counter()
            value = losses.sdtw(gt, pred)
            grad = losses.sdtw_grad(gt, pred)
            l1 = losses.l1_loss(predicted, gt)
            wce = losses.wce_loss(predicted, gt)
            out.append((value, grad, l1, wce, losses.total_loss(l1, wce, value)))
            parts[f"step{i}"] = perf_counter() - t0
        return out, parts

    def digest(self, outputs) -> str:
        return _sha256(*(repr((v, l1, wce, t)).encode() + g.tobytes()
                         for v, g, l1, wce, t in outputs))

    def check(self, tj, pairs, outputs) -> list[tuple[int, str]]:
        losses, w = tj.losses, tj.losses.LossWeights()
        problems = []
        for i, ((gt, pred, _), (value, grad, l1, wce, total)) in enumerate(zip(pairs, outputs)):
            n = len(pred.drawn_points())
            finite = all(map(math.isfinite, (value, l1, wce, total)))
            if not finite or grad.shape != (n, 2) or not bool((abs(grad) < math.inf).all()):
                problems.append((1, f"step {i}: non-finite loss or bad gradient shape"))
            elif not math.isclose(total, w.lambda1 * l1 + w.lambda2 * wce + w.lambda3 * value,
                                  rel_tol=1e-12):
                problems.append((1, f"step {i}: total_loss {total} is not the weighted sum"))
        # sdtw_grad against central finite differences on a seeded step (criterion 4)
        rnd = random.Random(self.seed)
        i = rnd.randrange(len(pairs))
        gt, pred, _ = pairs[i]
        grad, h, errors, fds = outputs[i][1], 1e-4, [], []
        for j in rnd.sample(range(len(pred.drawn_points())), 3):
            for axis in (0, 1):
                fd = (losses.sdtw(gt, _shift(tj, pred, j, axis, h))
                      - losses.sdtw(gt, _shift(tj, pred, j, axis, -h))) / (2 * h)
                fds.append(fd)
                errors.append(abs(float(grad[j, axis]) - fd))
        worst = max(errors) / max(max(map(abs, fds)), 1.0)
        if worst > 1e-3:
            problems.append((1, f"step {i}: sdtw_grad differs from finite differences "
                             f"by {worst:.2e} (relative)"))
        return problems


def _resampled_to(tj, traj, target: int):
    """The prediction `evaluate --rmse-resample` scores, rebuilt from public
    calls: `traj_core.resample` with the factor that maps the drawn point
    count to `target`, corrected up to four times by the count it reached."""
    tc = tj.traj_core
    current, strokes = len(traj.drawn_points()), len(tc.strokes_of(traj))
    if current == target or current < 2:
        return traj
    factor = (target - strokes) / max(current - strokes, 1)
    out = tc.resample(traj, max(factor, 1e-6))
    for _ in range(4):
        have = len(out.drawn_points())
        if have == target:
            break
        out = tc.resample(traj, max(factor * target / max(have, 1), 1e-6))
    return out


def _shift(tj, traj, index: int, axis: int, h: float):
    points = list(traj.points)
    p = points[index]
    points[index] = tj.traj_core.TrajPoint(p.x + (h if axis == 0 else 0.0),
                                           p.y + (h if axis == 1 else 0.0), p.state)
    return tj.traj_core.Trajectory(tuple(points), canvas_side=traj.canvas_side)


WORKLOADS = {cls.name: cls for cls in (SweepSynth, EvaluateLong, TrainSdtw)}


# --- measurement ---------------------------------------------------------------

def time_import() -> float:
    """Seconds to import trajeval in a fresh interpreter, numpy included."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import trajeval, trajeval.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"importing trajeval failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _fresh(workdir: Path) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(tj, wl, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trajeval": getattr(sys.modules["trajeval"], "__version__", None),
        "git_sha": _git_sha(),
        "source_sha256": _sha256(*(p.name.encode() + p.read_bytes() for p in sources)),
        "TRAJEVAL_THREADS": os.environ.get("TRAJEVAL_THREADS"),
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "params": wl.params(tj),
        "loop": "closed, one client; untimed warm-up round, then repeated rounds",
        "items_per_round": wl.items,
        "setup_reps": SETUP_REPS,
    }


def _traced(tracer, fn, *args):
    """Call fn with the tracer installed; return (result, wall seconds, spans)."""
    tracer.install()
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return result, perf_counter() - t0, tracer.take()


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the full result record."""
    tj = load_package()
    wl = WORKLOADS[name](seed)
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    tracer = layer_trace.Tracer()
    try:
        inputs = wl.build(tj, _fresh(workdir / "inputs"))
        if trace:
            _, wall, spans = _traced(tracer, wl.build, tj, _fresh(workdir / "setup"))
            setup_trace = layer_trace.summarize(spans, wall)
        setup = {"import": [], "build": []}

        def time_build():
            target = _fresh(workdir / "setup")
            t0 = perf_counter()
            wl.build(tj, target)
            return perf_counter() - t0

        def time_setups(now):
            """Run the set-up repetitions due by `now` (all of them if None)."""
            for part, timer in (("import", time_import), ("build", time_build)):
                reps, done = SETUP_REPS[part], setup[part]
                while len(done) < reps and (now is None
                                            or now >= start + seconds * len(done) / reps):
                    done.append(timer())

        reference, _ = wl.run_round(tj, inputs)
        ref_digest = wl.digest(reference)
        digests, walls, parts, traced, spans_out = [], [], {}, [], None
        start = perf_counter()
        deadline = start + seconds
        while len(walls) < MIN_ROUNDS or perf_counter() < deadline:
            t0 = perf_counter()
            outputs, part = wl.run_round(tj, inputs)
            walls.append(perf_counter() - t0)
            digests.append(wl.digest(outputs))
            for key, value in part.items():
                parts.setdefault(key, []).append(value)
            if trace:
                (outputs, _), wall, spans = _traced(tracer, wl.run_round, tj, inputs)
                digests.append(wl.digest(outputs))
                traced.append(layer_trace.summarize(spans, wall))
                if spans_out is None:
                    spans_out = layer_trace.spans_as_rows(spans)
            if not trace:  # repetition j of n is due j/n of the way through
                time_setups(perf_counter())
        if not trace:
            time_setups(None)
        rounds = len(digests) + 1  # with the warm-up
        problems = [(bad * rounds, message)
                    for bad, message in wl.check(tj, inputs, reference)]
        mismatched = sum(d != ref_digest for d in digests)
        if mismatched:
            problems.append((mismatched * wl.items,
                             f"{mismatched} rounds differ from the warm-up output"))
        empty_share = (wl.empty_cell_share(reference)
                       if isinstance(wl, EvaluateLong) else 0.0)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_DIR.rmdir()

    attempted = rounds * wl.items
    failed = min(sum(bad for bad, _ in problems), attempted)
    metrics: dict[str, dict] = {}

    def put(key, value, unit, samples):
        metrics[key] = {"value": value, "unit": unit, "samples": samples}

    if not trace:
        put("items_per_s", wl.items / sum(min(v) for v in parts.values()), "items/s",
            len(walls))
        put("setup_s", statistics.median(setup["import"]) + statistics.median(setup["build"]),
            "s", sum(SETUP_REPS.values()))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB", 1)
        for key, values in parts.items():
            if key.startswith("sweep."):
                put(key, min(values), "s", len(values))
        put("failed_share", failed / attempted, "ratio", attempted)
    else:
        per = dict(min(traced, key=lambda r: r["trace.wall_s"]))
        setup_keys = ("bench.make_synthetic_corpus.self_s",
                      "bench.make_synthetic_corpus.self_share")
        for key in setup_keys:  # corpus generation runs in set-up only
            per[key] = setup_trace[key]
        counts = layer_trace.count_names()
        for key in counts:
            if len({r[key] for r in traced}) != 1:
                problems.append((0, f"{key} differs between traced rounds"))
        for key, unit in layer_trace.table_units().items():
            put(key, per[key], unit, 1 if key in counts or key in setup_keys else len(traced))
        put("cli.evaluate.empty_cell_share", empty_share, "ratio", 1)
        put("trace.overhead_share",
            per["trace.wall_s"] / min(walls) - 1,
            "ratio", len(traced))
        put("trace.wall_s", per["trace.wall_s"], "s", len(traced))
        put("trace.attributed_share", per["trace.attributed_share"], "ratio", len(traced))
        put("trace.spans", per["trace.spans"], "count", 1)

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": [message for _, message in problems],
        "metrics": metrics,
        "metadata": metadata(tj, wl, seed, seconds, trace),
        "spans": spans_out,
    }


def contract_line(record: dict, trace: bool) -> dict:
    names = per_layer_contract() if trace else END_TO_END
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": record["metrics"][k]["value"],
                            "unit": record["metrics"][k]["unit"]} for k in names}}


def write_record(record: dict) -> Path:
    meta = record["metadata"]
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = (f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans = record.pop("spans")
    if spans is not None:
        with gzip.open(RESULTS_DIR / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(spans, fh)
        record["spans_file"] = f"{stem}.spans.json.gz"
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    for message in record["problems"]:
        print(f"check failed: {message}")
    for key, m in record["metrics"].items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(contract_line(record, bool(args.trace))))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: evaluation, benchmarking, rasterization, conversion.

Directory-mode evaluation pairs files by basename (gt/x.json <-> pred/x.json)
and scores each pair with `bench.score_pair`.  Everything runs serially in
one process.  All numeric CSV fields use 6 fixed decimal digits, so a seeded
run's output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from . import bench
from .raster import (dilate3x3, rasterize, read_pgm, binarize, write_mask_pgm)
from .traj_core import (Trajectory, dedupe_points, downsample_half, load_trajectory,
                        normalize_to_canvas, resample, save_trajectory, stroke_bounds)

def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{float(v):.6f}"


def _parse_metrics(spec: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    for name in names:
        if name not in bench.METRICS:
            raise SystemExit(
                f"error: unknown metric {name!r}; choose from {','.join(bench.METRICS)}")
    if not names:
        raise SystemExit("error: empty metric selection")
    return names


def _parse_grid(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in spec.split(",") if s.strip())
    except ValueError:
        raise SystemExit(f"error: bad grid {spec!r}") from None
    if not values:
        raise SystemExit("error: empty grid")
    return values


def _preprocess(traj: Trajectory, args) -> Trajectory:
    if args.normalize:
        traj = normalize_to_canvas(traj, args.canvas)
    if args.dedupe:
        traj = dedupe_points(traj)
    if args.downsample_half:
        traj = downsample_half(traj)
    return traj


def _resample_to_count(traj: Trajectory, target: int) -> Trajectory:
    """Resample so the drawn point count reaches `target` (RMSE opt-in mode)."""
    current, strokes = len(traj.drawn_xy()), len(stroke_bounds(traj))
    if current == target or current < 2:
        return traj
    factor = (target - strokes) / max(current - strokes, 1)
    out = resample(traj, max(factor, 1e-6))
    # rounding may leave an off-by-few mismatch; nudge with per-stroke factors
    for _ in range(4):
        have = len(out.drawn_xy())
        if have == target:
            break
        out = resample(traj, max(factor * target / max(have, 1), 1e-6))
    return out


def _collect_pairs(gt_path: Path, pred_path: Path):
    """(name, gt_file, pred_file) triples; directory mode pairs by basename."""
    if gt_path.is_file():
        return [(gt_path.stem, gt_path, pred_path)]
    pairs = []
    try:
        gt_files = sorted(p for p in gt_path.iterdir()
                          if p.suffix in (".json", ".pgm"))
    except OSError as exc:
        raise SystemExit(f"error: {exc}") from None
    if not gt_files:
        raise SystemExit(f"error: no trajectory or PGM files in {gt_path}")
    for gt_file in gt_files:
        pairs.append((gt_file.stem, gt_file, pred_path / (gt_file.stem + ".json")))
    return pairs


def _evaluate_pair(gt_file: Path, pred_file: Path, metrics, args) -> dict:
    row: dict[str, object] = dict.fromkeys(metrics)
    row["error"] = ""
    if not pred_file.exists():
        row["error"] = f"missing prediction file {pred_file}"
        return row
    try:
        pred = _preprocess(load_trajectory(pred_file), args)
        gt = (binarize(read_pgm(gt_file)) if gt_file.suffix == ".pgm"
              else _preprocess(load_trajectory(gt_file), args))
    except (OSError, ValueError) as exc:
        row["error"] = str(exc)
        return row
    rmse_pred = None
    if args.rmse_resample and isinstance(gt, Trajectory):
        rmse_pred = _resample_to_count(pred, len(gt.drawn_xy()))
    values, errors = bench.score_pair(gt, pred, metrics, args.kmax, side=args.canvas,
                                      rmse_pred=rmse_pred)
    row.update(values)
    if errors:
        name, exc = next(iter(errors.items()))
        row["error"] = f"{name}: {exc}"
    return row


def cmd_evaluate(args) -> int:
    metrics = _parse_metrics(args.metrics)
    pairs = _collect_pairs(Path(args.gt), Path(args.pred))
    rows = sorted(((name, _evaluate_pair(gt_file, pred_file, metrics, args))
                   for name, gt_file, pred_file in pairs), key=lambda r: r[0])

    aggregates = {}
    for m in metrics:
        vals = [row[m] for _, row in rows if row[m] is not None]
        aggregates[m] = {
            "mean": (math.fsum(vals) / len(vals)) if vals else None,
            "median": statistics.median(vals) if vals else None,
        }

    if args.format == "csv":
        lines = ["sample," + ",".join(metrics) + ",error"]
        for name, row in rows:
            cells = [name] + [_fmt(row[m]) for m in metrics]
            cells.append(str(row["error"]).replace(",", ";"))
            lines.append(",".join(cells))
        for agg in ("mean", "median"):
            cells = [agg] + [_fmt(aggregates[m][agg]) for m in metrics] + [""]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "rows": [{"sample": name,
                      **{m: (None if row[m] is None else round(float(row[m]), 6))
                         for m in metrics},
                      "error": row["error"]} for name, row in rows],
            "aggregates": {m: {k: (None if v is None else round(float(v), 6))
                               for k, v in aggregates[m].items()} for m in metrics},
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    _write_out(text, args.out)
    failures = sum(1 for _, row in rows
                   if all(row[m] is None for m in metrics))
    return 1 if failures == len(rows) else 0


def _load_corpus(args) -> list[Trajectory]:
    if args.synthetic is not None:
        try:
            return bench.make_synthetic_corpus(args.synthetic, seed=args.seed,
                                               side=args.canvas)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.json"))
    corpus = []
    for f in files:
        try:
            corpus.append(load_trajectory(f))
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {f}: {exc}", file=sys.stderr)
    if not corpus:
        raise SystemExit(f"error: no valid trajectory files in {corpus_dir}")
    return corpus


def _emit_reports(reports, args) -> None:
    text = (bench.reports_to_csv(reports) if args.format == "csv"
            else bench.reports_to_json(reports))
    _write_out(text, args.out)


def cmd_sensitivity(args) -> int:
    corpus = _load_corpus(args)
    grid = _parse_grid(args.grid) if args.grid else None
    metrics = _parse_metrics(args.metrics)
    try:
        reports = bench.sensitivity_run(corpus, args.error, grid=grid, metrics=metrics,
                                        seed=args.seed, k_max=args.kmax)
    except ValueError as exc:  # input the run rejects before any work
        raise SystemExit(f"error: {exc}") from None
    _emit_reports(reports, args)
    return 0


def cmd_invariance(args) -> int:
    corpus = _load_corpus(args)
    grid = _parse_grid(args.grid) if args.grid else None
    metrics = _parse_metrics(args.metrics) if args.metrics else None
    try:
        reports = bench.invariance_run(corpus, args.transform, grid=grid,
                                       metrics=metrics, seed=args.seed,
                                       k_max=args.kmax)
    except ValueError as exc:  # input the run rejects before any work
        raise SystemExit(f"error: {exc}") from None
    _emit_reports(reports, args)
    return 0


def cmd_rasterize(args) -> int:
    try:
        traj = load_trajectory(args.input)
        mask = rasterize(traj, args.side)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.dilate:
        mask = dilate3x3(mask, args.dilate)
    write_mask_pgm(mask, args.out)
    return 0


def cmd_convert(args) -> int:
    try:
        traj = load_trajectory(args.input)
        save_trajectory(traj, args.out, form=args.to)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_out(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _int_at_least(low: int):
    """argparse type for an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(parser, with_seed=True):
    parser.add_argument("--canvas", type=_int_at_least(2), default=64,
                        help="canvas side in pixels")
    parser.add_argument("--kmax", type=_int_at_least(0), default=10,
                        help="dilation sweep bound for AIoU")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_seed:
        parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajeval",
        description="Handwriting-trajectory evaluation: glyph fidelity (AIoU), "
                    "writing order (LDTW/DTW/RMSE), and error-simulation benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("gt", help="ground-truth file or directory (trajectory JSON or PGM)")
    p.add_argument("pred", help="prediction file or directory (trajectory JSON)")
    p.add_argument("--metrics", default="aiou,ldtw",
                   help=f"comma list from {{{','.join(bench.METRICS)}}}")
    p.add_argument("--normalize", action="store_true",
                   help="normalize trajectories to the canvas before scoring")
    p.add_argument("--dedupe", action="store_true",
                   help="drop consecutive same-pixel points before scoring")
    p.add_argument("--downsample-half", action="store_true",
                   help="halve trajectory point density before scoring")
    p.add_argument("--rmse-resample", action="store_true",
                   help="resample predictions to the ground-truth length for RMSE")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="error-sensitivity curves")
    p.add_argument("--corpus", help="directory of trajectory JSON files")
    p.add_argument("--synthetic", type=_int_at_least(1), default=None,
                   help="generate N synthetic glyphs instead of reading a corpus")
    p.add_argument("--error", choices=bench.SENSITIVITY_KINDS, required=True)
    p.add_argument("--grid", help="comma list of magnitudes (default per error kind)")
    p.add_argument("--metrics", default="aiou,ldtw")
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("invariance", help="stroke-width / sample-rate invariance curves")
    p.add_argument("--corpus")
    p.add_argument("--synthetic", type=_int_at_least(1), default=None)
    p.add_argument("--transform", choices=bench.INVARIANCE_TRANSFORMS, required=True)
    p.add_argument("--grid")
    p.add_argument("--metrics", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("rasterize", help="render a trajectory to a PGM mask")
    p.add_argument("input", help="trajectory JSON file")
    p.add_argument("out", help="output PGM path")
    p.add_argument("--side", type=_int_at_least(1), default=None)
    p.add_argument("--dilate", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("convert", help="convert between trajectory file forms")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--to", choices=("points", "strokes"), required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("sensitivity", "invariance"):
        if (args.corpus is None) == (args.synthetic is None):
            raise SystemExit("error: give exactly one of --corpus or --synthetic")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

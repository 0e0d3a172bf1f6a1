"""Command-line front end: evaluation, benchmarking, rasterization, conversion.

Directory-mode evaluation pairs files by basename (gt/x.json <-> pred/x.json)
and scores each pair with `bench.score_pair`, on the ground truth's canvas
(`--canvas` is only the `--normalize` target).  One handler, `cmd_curves`,
serves `sensitivity` and `invariance` through the `bench` runner of the same
name.  Everything runs serially in one process, and `bench._fmt` (CSV) and
`bench._json_number` (JSON) write every number, so seeded output is stable.
Handlers reject bad input by raising OSError or ValueError; only `main` turns
one into an error line on stderr and exit status 1.  `main` parses with one
parser, built on its first call and kept for the life of the process;
`build_parser()` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from pathlib import Path

from . import bench
from .error_sim import widen_strokes
from .raster import binarize, read_pgm, write_pgm
from .traj_core import (Trajectory, dedupe_points, downsample_half, load_trajectory,
                        normalize_to_canvas, resample, save_trajectory, stroke_bounds)


def _parse_metrics(spec: str) -> tuple[str, ...]:
    """The names in a comma list; `bench._check_metrics` judges them."""
    return tuple(s.strip() for s in spec.split(",") if s.strip())


def _parse_grid(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in spec.split(",") if s.strip())
    except ValueError:
        raise ValueError(f"bad grid {spec!r}") from None
    if not values:
        raise ValueError("empty grid")
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


# --dedupe drops different points from the two sides, so RMSE's index pairs no longer correspond
DEDUPE_RMSE_REASON = "--dedupe leaves RMSE no point-to-point correspondence; add --rmse-resample"


def _collect_pairs(gt_path: Path, pred_path: Path):
    """(name, gt_file, pred_file) triples; directory mode pairs by basename."""
    if gt_path.is_file():
        return [(gt_path.stem, gt_path, pred_path)]
    gt_of = {}
    for path in sorted(p for p in gt_path.iterdir() if p.suffix in (".json", ".pgm")):
        if gt_of.setdefault(path.stem, path) is not path:  # one prediction for both
            raise ValueError(f"ground-truth files {gt_of[path.stem]} and {path} share a name")
    if not gt_of:
        raise ValueError(f"no trajectory or PGM files in {gt_path}")
    return [(name, gt_file, pred_path / (name + ".json")) for name, gt_file in gt_of.items()]


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
    if "rmse" in metrics and args.rmse_resample and isinstance(gt, Trajectory):
        try:
            rmse_pred = _resample_to_count(pred, len(gt.drawn_xy()))
        except ValueError as exc:  # recorded as this pair's RMSE error
            rmse_pred = exc
    elif args.dedupe:
        rmse_pred = ValueError(DEDUPE_RMSE_REASON)
    values, errors = bench.score_pair(gt, pred, metrics, args.kmax, rmse_pred=rmse_pred)
    row.update(values)
    if errors:
        name, exc = next(iter(errors.items()))
        row["error"] = f"{name}: {exc}"
    return row


def _csv_text(text) -> str:
    """A free-text CSV cell: commas become semicolons, double quotes single
    quotes and CR/LF spaces, so columns and rows stay aligned."""
    return str(text).replace(",", ";").replace('"', "'").replace("\r", " ").replace("\n", " ")


def cmd_evaluate(args) -> int:
    metrics = bench._check_metrics(_parse_metrics(args.metrics))
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
            cells = [_csv_text(name)] + [bench._fmt(row[m]) for m in metrics]
            cells.append(_csv_text(row["error"]))
            lines.append(",".join(cells))
        for agg in ("mean", "median"):
            cells = [agg] + [bench._fmt(aggregates[m][agg]) for m in metrics] + [""]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "rows": [{"sample": name, **{m: bench._json_number(row[m]) for m in metrics},
                      "error": row["error"]} for name, row in rows],
            "aggregates": {m: {k: bench._json_number(v) for k, v in aggregates[m].items()}
                           for m in metrics},
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    _write_out(text, args.out)
    failures = sum(1 for _, row in rows
                   if all(row[m] is None for m in metrics))
    return 1 if failures == len(rows) else 0


def _load_corpus(args) -> list[Trajectory]:
    if (args.corpus is None) == (args.synthetic is None):
        raise ValueError("give exactly one of --corpus or --synthetic")
    if args.synthetic is not None:
        return bench.make_synthetic_corpus(args.synthetic, seed=args.seed, side=args.canvas)
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.json"))
    corpus = []
    for f in files:
        try:
            corpus.append(load_trajectory(f))
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {f}: {exc}", file=sys.stderr)
    if not corpus:
        raise ValueError(f"no valid trajectory files in {corpus_dir}")
    return corpus


def cmd_curves(args) -> int:
    corpus = _load_corpus(args)
    grid = _parse_grid(args.grid) if args.grid else None
    metrics = _parse_metrics(args.metrics) if args.metrics is not None else None
    reports = getattr(bench, f"{args.command}_run")(
        corpus, args.kind, grid=grid, metrics=metrics, seed=args.seed, k_max=args.kmax)
    _write_out(bench.reports_to_csv(reports) if args.format == "csv"
               else bench.reports_to_json(reports), args.out)
    return 0


def cmd_rasterize(args) -> int:
    write_pgm(widen_strokes(load_trajectory(args.input), args.dilate, args.side), args.out)
    return 0


def cmd_convert(args) -> int:
    traj = load_trajectory(args.input)
    save_trajectory(traj, args.out, form=args.to)
    return 0


def _write_out(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
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


def _add_common(parser, canvas_help):
    parser.add_argument("--canvas", type=_int_at_least(2), default=64, help=canvas_help)
    parser.add_argument("--kmax", type=_int_at_least(0), default=10,
                        help="dilation sweep bound for AIoU")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


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
    _add_common(p, "--normalize target side; glyphs render on the ground truth's canvas")
    p.set_defaults(func=cmd_evaluate)

    for command, help_text, kind_flag, kinds in (
            ("sensitivity", "error-sensitivity curves", "--error",
             bench.SENSITIVITY_KINDS),
            ("invariance", "stroke-width / sample-rate invariance curves",
             "--transform", bench.INVARIANCE_TRANSFORMS)):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--corpus", help="directory of trajectory JSON files")
        p.add_argument("--synthetic", type=_int_at_least(1), default=None,
                       help="generate N synthetic glyphs instead of reading a corpus")
        p.add_argument(kind_flag, dest="kind", choices=kinds, required=True)
        p.add_argument("--grid", help="comma list of magnitudes "
                                      f"(default per {kind_flag[2:]} kind)")
        p.add_argument("--metrics", help=f"comma list from {{{','.join(bench.METRICS)}}}")
        p.add_argument("--seed", type=int, default=0)
        _add_common(p, "canvas side of --synthetic glyphs in pixels")
        p.set_defaults(func=cmd_curves)

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


# parsing leaves the parser as it was, so every `main` call can share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # input or a path the command rejects
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface tests: evaluation, benchmarks, conversion, and
byte-stable output."""

import argparse
import csv
import io
import json
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from trajeval import (Trajectory, bench, dedupe_points, downsample_half,
                      load_trajectory, make_synthetic_corpus, normalize_to_canvas,
                      rasterize, read_pgm, save_trajectory, write_pgm)
from trajeval import cli
from trajeval.cli import build_parser, main
from trajeval.raster import mask_to_gray
from trajeval.error_sim import drift_points, widen_strokes

from conftest import random_traj, traj_from_strokes


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def sample_files(tmp_path, rng):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for i in range(3):
        traj = random_traj(rng, n_strokes=(2, 3), n_points=(3, 6))
        save_trajectory(traj, gt_dir / f"g{i}.json")
        save_trajectory(drift_points(traj, 1.5, seed=i), pred_dir / f"g{i}.json")
    return gt_dir, pred_dir


# --- evaluate ----------------------------------------------------------------

def test_evaluate_identical_pair_scores_perfect(tmp_path, rng, capsys):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "a.json")
    code, out = run_cli(["evaluate", str(tmp_path / "a.json"),
                         str(tmp_path / "a.json"), "--metrics", "aiou,ldtw,rmse"],
                        capsys)
    assert code == 0
    rows = csv_rows(out)
    assert rows[0]["aiou"] == "1.000000"
    assert rows[0]["ldtw"] == "0.000000"
    assert rows[0]["rmse"] == "0.000000"


def test_evaluate_directory_pairs_by_basename(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    assert code == 0
    rows = csv_rows(out)
    assert [r["sample"] for r in rows] == ["g0", "g1", "g2", "mean", "median"]
    for r in rows[:3]:
        assert 0.0 < float(r["aiou"]) <= 1.0
        assert float(r["ldtw"]) > 0.0


def test_evaluate_csv_keeps_columns_for_a_comma_in_the_sample_name(tmp_path, rng, capsys):
    """A comma or a line break in a sample name neither adds a column nor splits
    the row; JSON keeps the name as it is."""
    traj = random_traj(rng)
    for name, cell in (("a,b", "a;b"), ("a\nb", "a b")):
        gt_dir, pred_dir = tmp_path / cell / "gt", tmp_path / cell / "pred"
        gt_dir.mkdir(parents=True)
        pred_dir.mkdir()
        save_trajectory(traj, gt_dir / f"{name}.json")
        save_trajectory(drift_points(traj, 1.5, seed=0), pred_dir / f"{name}.json")
        code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
        assert code == 0
        assert [len(r) for r in csv.reader(io.StringIO(out))] == [4] * 4
        row = csv_rows(out)[0]
        assert row["sample"] == cell and row["error"] == "" and None not in row
        assert 0.0 < float(row["aiou"]) <= 1.0 and float(row["ldtw"]) > 0.0
        _, out = run_cli(["evaluate", str(gt_dir), str(pred_dir), "--format", "json"], capsys)
        assert json.loads(out)["rows"][0]["sample"] == name


def test_evaluate_csv_keeps_columns_for_a_double_quote_in_the_sample_name(tmp_path, rng,
                                                                        capsys):
    """A double quote opening a sample name would start a quoted CSV field that
    swallows the rest of the output; it is written as a single quote."""
    traj = random_traj(rng)
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for name in ('"a', "b"):
        save_trajectory(traj, gt_dir / f"{name}.json")
        save_trajectory(drift_points(traj, 1.5, seed=0), pred_dir / f"{name}.json")
    code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    assert code == 0
    assert [len(r) for r in csv.reader(io.StringIO(out))] == [4] * 5
    assert [r["sample"] for r in csv_rows(out)] == ["'a", "b", "mean", "median"]
    _, out = run_cli(["evaluate", str(gt_dir), str(pred_dir), "--format", "json"], capsys)
    assert json.loads(out)["rows"][0]["sample"] == '"a'


def test_evaluate_aggregate_rows_are_consistent(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    _, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    rows = csv_rows(out)
    vals = [float(r["ldtw"]) for r in rows[:3]]
    mean_row = next(r for r in rows if r["sample"] == "mean")
    assert float(mean_row["ldtw"]) == pytest.approx(sum(vals) / 3, abs=1e-6)


def test_evaluate_missing_prediction_is_reported_not_fatal(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    (pred_dir / "g1.json").unlink()
    code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    assert code == 0  # two pairs still scored
    row = next(r for r in csv_rows(out) if r["sample"] == "g1")
    assert row["aiou"] == "" and "missing" in row["error"]


def test_evaluate_reports_malformed_ground_truth_not_fatal(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    (gt_dir / "g1.json").write_text('{"points": 5}')
    code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    assert code == 0
    row = next(r for r in csv_rows(out) if r["sample"] == "g1")
    assert row["aiou"] == "" and "points" in row["error"]


def test_evaluate_exits_nonzero_when_all_pairs_fail(tmp_path, rng, capsys):
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    save_trajectory(random_traj(rng), gt_dir / "only.json")
    code, _ = run_cli(["evaluate", str(gt_dir), str(pred_dir)], capsys)
    assert code == 1


def test_evaluate_reports_missing_ground_truth_path(tmp_path):
    missing = tmp_path / "no_such_dir"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(missing), str(tmp_path)])
    assert exc.value.code.startswith("error: ") and str(missing) in exc.value.code


def test_evaluate_reports_a_directory_without_trajectory_or_pgm_files(tmp_path):
    (tmp_path / "notes.txt").write_text("not a trajectory")
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(tmp_path), str(tmp_path)])
    assert exc.value.code == f"error: no trajectory or PGM files in {tmp_path}"


def test_evaluate_rejects_two_ground_truths_sharing_a_name(sample_files, tmp_path, rng,
                                                          capsys):
    """gt/g1.json and gt/g1.pgm would both be scored against pred/g1.json, giving
    two rows named g1 and counting that prediction twice in the aggregates."""
    gt_dir, pred_dir = sample_files
    write_pgm(widen_strokes(random_traj(rng), 1), gt_dir / "g1.pgm")
    out = tmp_path / "scores.csv"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(gt_dir), str(pred_dir), "--out", str(out)])
    assert exc.value.code == (f"error: ground-truth files {gt_dir / 'g1.json'} and "
                              f"{gt_dir / 'g1.pgm'} share a name")
    assert not out.exists() and capsys.readouterr().out == ""


def test_evaluate_pgm_ground_truth_gives_glyph_metrics_only(tmp_path, rng, capsys):
    traj = random_traj(rng)
    write_pgm(widen_strokes(traj, 1), tmp_path / "g.pgm")
    save_trajectory(traj, tmp_path / "g.json")
    code, out = run_cli(["evaluate", str(tmp_path / "g.pgm"),
                         str(tmp_path / "g.json"), "--metrics", "aiou,ldtw"],
                        capsys)
    assert code == 0
    row = csv_rows(out)[0]
    assert row["aiou"] == "1.000000"      # dilation sweep absorbs the width
    assert row["ldtw"] == ""              # no trajectory ground truth
    assert "ldtw" in row["error"]


def test_evaluate_renders_on_the_ground_truths_canvas(tmp_path, capsys):
    """Without --normalize, --canvas does not set the rendering canvas: a pair
    of 128-canvas files is scored on 128 x 128, as `rasterize` renders them."""
    strokes = {"canvas": [128, 128], "strokes": [[[10.0, 20.0], [100.0, 92.0]],
                                                 [[40.0, 110.0], [60.0, 70.0]]]}
    for name in ("g.json", "p.json"):
        (tmp_path / name).write_text(json.dumps(strokes))
    code, out = run_cli(["evaluate", str(tmp_path / "g.json"), str(tmp_path / "p.json"),
                         "--metrics", "aiou,iou,ldtw"], capsys)
    assert code == 0
    row = csv_rows(out)[0]
    assert (row["aiou"], row["iou"], row["ldtw"]) == ("1.000000", "1.000000", "0.000000")
    assert row["error"] == ""


def test_evaluate_json_format(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    _, out = run_cli(["evaluate", str(gt_dir), str(pred_dir),
                      "--format", "json"], capsys)
    payload = json.loads(out)
    assert len(payload["rows"]) == 3
    assert set(payload["aggregates"]) == {"aiou", "ldtw"}


def test_evaluate_rejects_unknown_metric(sample_files, capsys):
    gt_dir, pred_dir = sample_files
    with pytest.raises(SystemExit):
        main(["evaluate", str(gt_dir), str(pred_dir), "--metrics", "wer"])


def test_evaluate_rmse_resample_matches_lengths(tmp_path, rng, capsys):
    traj = random_traj(rng, n_strokes=(1, 1), n_points=(9, 9))
    from trajeval import resample
    save_trajectory(traj, tmp_path / "gt.json")
    save_trajectory(resample(traj, 2.0), tmp_path / "pred.json")
    code, out = run_cli(["evaluate", str(tmp_path / "gt.json"),
                         str(tmp_path / "pred.json"), "--metrics", "rmse",
                         "--rmse-resample"], capsys)
    assert code == 0
    assert csv_rows(out)[0]["rmse"] != ""


@pytest.mark.parametrize("pred, gt, calls, status, row", [
    (5, 6, 2, 0, {"rmse": "30.186991", "error": ""}),
    (1, 2, 5, 1, {"rmse": "", "error": "rmse: length mismatch: 40 vs 38 points "
                                       "(RMSE needs a strict one-to-one correspondence)"}),
])
def test_evaluate_rmse_resample_corrects_a_missed_count(tmp_path, monkeypatch, capsys,
                                                         pred, gt, calls, status, row):
    """`_resample_to_count`'s factor search for a 40-point target: glyph 5's
    prediction reaches it on the second `resample` call, glyph 1's still misses
    after five and is left with a length mismatch (its only row fails: status 1)."""
    corpus = make_synthetic_corpus(40, seed=4)
    save_trajectory(corpus[gt], tmp_path / "gt.json")
    save_trajectory(corpus[pred], tmp_path / "pred.json")
    made, resample = [], cli.resample
    monkeypatch.setattr(cli, "resample", lambda *args: made.append(args) or resample(*args))
    code, out = run_cli(["evaluate", str(tmp_path / "gt.json"), str(tmp_path / "pred.json"),
                         "--metrics", "rmse", "--rmse-resample"], capsys)
    assert code == status and len(corpus[gt].drawn_xy()) == 40
    assert len(made) == calls
    assert csv_rows(out)[0] == {"sample": "gt", **row}


@pytest.fixture
def far_pairs(tmp_path):
    """gt/a.json and gt/b.json hold the same three points; pred/a.json is their
    two-point diagonal, pred/b.json a stroke from x = -1e308 to 1e308, whose
    squared distances to the ground truth pass the float64 range."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for name in ("a", "b"):
        (gt_dir / f"{name}.json").write_text('{"strokes": [[[1, 1], [2, 2], [3, 3]]]}')
    (pred_dir / "a.json").write_text('{"strokes": [[[1, 1], [3, 3]]]}')
    (pred_dir / "b.json").write_text('{"strokes": [[[-1e308, 0], [1e308, 5]]]}')
    return gt_dir, pred_dir


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_evaluate_records_an_overflowing_distance_as_the_metrics_error(far_pairs, capsys):
    """b's DTW costs overflow to inf: its cells are empty with the reason, so
    JSON never holds Infinity and CSV never inf, and no overflow warning is raised."""
    argv = ["evaluate", *map(str, far_pairs), "--metrics", "ldtw,dtw"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(argv + ["--format", "json"], capsys)
        _, csv_out = run_cli(argv, capsys)
    assert code == 0
    payload = strict_json(text)
    assert payload["rows"][1] == {
        "sample": "b", "ldtw": None, "dtw": None,
        "error": "ldtw: ldtw overflows float64: the points lie too far apart"}
    assert payload["rows"][0]["dtw"] == 1.414214
    assert payload["aggregates"]["dtw"] == {"mean": 1.414214, "median": 1.414214}
    assert "inf" not in csv_out


def test_evaluate_records_a_failed_rmse_resample_as_that_pairs_rmse_error(far_pairs,
                                                                          capsys):
    """Resampling pred/b to three points overflows; the run goes on, and that
    error is b's RMSE error."""
    for metrics in ("rmse,ldtw", "ldtw,rmse"):
        code, out = run_cli(["evaluate", *map(str, far_pairs), "--metrics", metrics,
                             "--rmse-resample"], capsys)
        assert code == 0
        rows = {row["sample"]: row for row in csv_rows(out)}
        assert rows["a"] == {"sample": "a", "rmse": "0.000000", "ldtw": "0.471405",
                             "error": ""}
        assert (rows["b"]["rmse"], rows["b"]["ldtw"]) == ("", "")
    assert rows["b"]["error"] == "ldtw: ldtw overflows float64: the points lie too far apart"
    code, out = run_cli(["evaluate", *map(str, far_pairs), "--metrics", "rmse",
                         "--rmse-resample"], capsys)
    assert csv_rows(out)[1] == {"sample": "b", "rmse": "",
                                "error": "rmse: non-finite coordinates (inf; 2.5)"}


def test_evaluate_resamples_only_when_rmse_is_asked_for(far_pairs, monkeypatch, capsys):
    calls, resample = [], cli.resample
    monkeypatch.setattr(cli, "resample", lambda *args: calls.append(args) or resample(*args))
    argv = ["evaluate", *map(str, far_pairs), "--metrics", "ldtw"]
    plain = run_cli(argv, capsys)
    assert run_cli(argv + ["--rmse-resample"], capsys) == plain
    assert plain[0] == 0 and calls == []


@pytest.mark.parametrize("flags", [["--normalize"], ["--dedupe"], ["--downsample-half"],
                                   ["--normalize", "--dedupe", "--downsample-half"]])
def test_evaluate_preprocessing_flags_match_the_library_chain(flags, tmp_path, capsys):
    metrics = ("aiou", "iou", "ldtw", "dtw", "rmse")
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    # half-size glyphs with 1-3 px steps: normalizing rescales them, some
    # neighbours share a pixel, and every stroke has points to halve
    for i, glyph in enumerate(make_synthetic_corpus(3, seed=0, step_range=(1.0, 3.0))):
        gt = Trajectory.from_arrays(glyph.xy * 0.5 + 3.0, glyph.state, 64)
        save_trajectory(gt, gt_dir / f"g{i}.json")
        save_trajectory(drift_points(gt, 1.0, seed=i), pred_dir / f"g{i}.json")

    def chain(traj, flags):
        if "--normalize" in flags:
            traj = normalize_to_canvas(traj, 64)
        if "--dedupe" in flags:
            traj = dedupe_points(traj)
        if "--downsample-half" in flags:
            traj = downsample_half(traj)
        return traj

    def library_rows(flags):
        rows = []
        for i in range(3):
            gt, pred = (chain(load_trajectory(d / f"g{i}.json"), flags)
                        for d in (gt_dir, pred_dir))
            # dedupe drops different points from each side, so RMSE is undefined
            rmse_pred = ValueError(cli.DEDUPE_RMSE_REASON) if "--dedupe" in flags else None
            values, errors = bench.score_pair(gt, pred, metrics, 10, rmse_pred=rmse_pred)
            error = next((f"{name}: {exc}" for name, exc in errors.items()), "")
            rows.append({"sample": f"g{i}", "error": error,
                         **{m: bench._json_number(values[m]) for m in metrics}})
        return rows

    code, out = run_cli(["evaluate", str(gt_dir), str(pred_dir), "--metrics",
                         ",".join(metrics), "--format", "json", *flags], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == library_rows(flags)
    assert library_rows(flags) != library_rows([])  # each flag changes a score
    if "--dedupe" in flags:  # no RMSE from points paired by index after dedupe
        assert all(row["rmse"] is None and row["error"] == f"rmse: {cli.DEDUPE_RMSE_REASON}"
                   for row in json.loads(out)["rows"])


# --- sensitivity / invariance ------------------------------------------------

def test_sensitivity_synthetic_runs_and_formats(capsys):
    code, out = run_cli(["sensitivity", "--synthetic", "6", "--error",
                         "point-drift", "--grid", "1,2", "--seed", "4"], capsys)
    assert code == 0
    rows = csv_rows(out)
    assert {r["metric"] for r in rows} == {"aiou", "ldtw"}
    assert all(r["samples_used"] == "6" for r in rows)


def test_sensitivity_json_writes_null_for_an_undefined_mean(capsys):
    # default glyphs have 6 to 8 strokes, so none survives deleting 9
    code, out = run_cli(["sensitivity", "--synthetic", "3", "--error",
                         "stroke-delete", "--grid", "1,9", "--metrics", "ldtw",
                         "--format", "json"], capsys)
    assert code == 0

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    rows = json.loads(out, parse_constant=reject)["rows"]
    assert [(r["samples_used"], r["raw_mean"] is None) for r in rows] == \
        [(3, False), (0, True)]


def test_sensitivity_normalizes_over_the_defined_magnitudes(capsys):
    # magnitudes 1 and 2 are defined, 9 is not; the curve spans the defined ones
    code, out = run_cli(["sensitivity", "--synthetic", "3", "--error",
                         "stroke-delete", "--grid", "1,2,9", "--metrics", "ldtw",
                         "--format", "json"], capsys)
    assert code == 0

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    rows = json.loads(out, parse_constant=reject)["rows"]
    assert [r["magnitude"] for r in rows] == [1.0, 2.0, 9.0]
    assert [r["normalized"] for r in rows] == [0.0, 1.0, None]
    assert rows[2]["raw_mean"] is None


def test_sensitivity_corpus_directory(tmp_path, rng, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(4):
        save_trajectory(random_traj(rng, n_strokes=(2, 3)), corpus / f"{i}.json")
    code, out = run_cli(["sensitivity", "--corpus", str(corpus), "--error",
                         "stroke-drift", "--grid", "2,4"], capsys)
    assert code == 0
    assert all(r["samples_used"] == "4" for r in csv_rows(out))


def test_invariance_runs_both_transforms(capsys):
    for transform in ("stroke-width", "sample-rate"):
        code, out = run_cli(["invariance", "--synthetic", "5", "--transform",
                             transform, "--seed", "2"], capsys)
        assert code == 0
        assert len(csv_rows(out)) > 0


def test_invariance_skips_a_width_that_fills_the_canvas(capsys):
    code, out = run_cli(["invariance", "--synthetic", "2", "--transform",
                         "stroke-width", "--grid", "0,30"], capsys)
    assert code == 0
    _, alone = run_cli(["invariance", "--synthetic", "2", "--transform",
                        "stroke-width", "--grid", "0"], capsys)
    rows = csv_rows(out)
    assert [r for r in rows if r["magnitude"] == "0.000000"] == csv_rows(alone)
    for row in (r for r in rows if r["magnitude"] == "30.000000"):
        assert (row["raw_mean"], row["normalized"]) == ("nan", "nan")
        assert (row["samples_used"], row["samples_skipped"]) == ("0", "2")


def test_curve_commands_skip_a_corpus_glyph_outside_the_canvas(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, traj in enumerate(make_synthetic_corpus(3, seed=0)):
        save_trajectory(traj, corpus / f"{i}.json")
    (corpus / "out.json").write_text(json.dumps(
        {"canvas": [64, 64], "strokes": [[[10, 10], [70, 20], [30, 30]]]}))
    for argv in (["sensitivity", "--error", "point-drift", "--grid", "1,2"],
                 ["invariance", "--transform", "stroke-width", "--grid", "0,1"]):
        code, out = run_cli([*argv, "--corpus", str(corpus), "--metrics", "aiou"], capsys)
        assert code == 0
        assert [(r["samples_used"], r["samples_skipped"]) for r in csv_rows(out)] == \
            [("3", "1"), ("3", "1")]


def test_curve_commands_warn_of_a_bad_corpus_file_and_skip_it(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.json").write_text('{"strokes": []}')
    argv = ["sensitivity", "--error", "point-drift", "--grid", "1", "--corpus", str(corpus),
            "--metrics", "ldtw"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: no valid trajectory files in {corpus}"
    warning = f"warning: skipping {corpus / 'bad.json'}: "
    assert capsys.readouterr().err.startswith(warning)
    save_trajectory(make_synthetic_corpus(1, seed=0)[0], corpus / "good.json")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.startswith(warning) and err.count("\n") == 1
    assert [(r["samples_used"], r["samples_skipped"]) for r in csv_rows(out)] == [("1", "0")]


def test_bench_commands_demand_one_corpus_source(capsys):
    for argv in (["sensitivity", "--error", "point-drift"],
                 ["sensitivity", "--synthetic", "4", "--corpus", "x",
                  "--error", "point-drift"],
                 ["invariance", "--transform", "sample-rate"],
                 ["invariance", "--synthetic", "4", "--corpus", "x",
                  "--transform", "sample-rate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "error: give exactly one of --corpus or --synthetic"


@pytest.mark.parametrize("argv,message", [
    (["evaluate", "gt", "pred", "--metrics", "aiou,ldtw,aiou"],
     "error: metric 'aiou' given twice"),
    (["sensitivity", "--synthetic", "2", "--error", "point-drift", "--metrics", "aiou,aiou"],
     "error: metric 'aiou' given twice"),
    (["invariance", "--synthetic", "2", "--transform", "sample-rate", "--metrics", "dtw,dtw"],
     "error: metric 'dtw' given twice"),
    (["invariance", "--synthetic", "2", "--transform", "sample-rate", "--metrics", ""],
     "error: empty metric selection"),
])
def test_metric_selection_rejects_repeats_and_empties(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message


@pytest.mark.parametrize("argv,message", [
    (["sensitivity", "--synthetic", "2", "--error", "point-drift", "--kmax", "-1"],
     "argument --kmax: must be at least 0, got -1"),
    (["evaluate", "gt", "pred", "--canvas", "1"],
     "argument --canvas: must be at least 2, got 1"),
    (["invariance", "--synthetic", "0", "--transform", "sample-rate"],
     "argument --synthetic: must be at least 1, got 0"),
    (["invariance", "--synthetic", "2", "--transform", "sample-rate",
      "--canvas", "6"], "error: side must be at least 9"),
    (["rasterize", "GLYPH", "out.pgm", "--side", "0"],
     "argument --side: must be at least 1, got 0"),
    (["rasterize", "GLYPH", "out.pgm", "--dilate", "-1"],
     "argument --dilate: must be at least 0, got -1"),
    (["rasterize", "GLYPH", "out.pgm", "--dilate", "two"],
     "argument --dilate: invalid integer 'two'"),
])
def test_out_of_range_numeric_flags_fail_cleanly(argv, message, tmp_path, rng,
                                                 capsys):
    glyph = tmp_path / "g.json"
    save_trajectory(random_traj(rng), glyph)
    with pytest.raises(SystemExit) as exc:
        main([str(glyph) if a == "GLYPH" else a for a in argv])
    # argparse exits 2 after printing; a SystemExit message is printed on exit
    err = capsys.readouterr().err if exc.value.code == 2 else exc.value.code
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["invariance", "--transform", "sample-rate", "--grid=-1,2"],
     "error: sample-rate factor must be positive, got -1.0"),
    (["invariance", "--transform", "sample-rate", "--grid=0,2"],
     "error: sample-rate factor must be positive, got 0.0"),
    (["invariance", "--transform", "stroke-width", "--grid=-1,2"],
     "error: stroke-width dilation must be a whole number of at least 0, got -1.0"),
    (["invariance", "--transform", "sample-rate", "--grid=2,1"],
     "error: magnitude grid must be ascending"),
    (["sensitivity", "--error", "point-drift", "--grid=3,1"],
     "error: magnitude grid must be ascending"),
    (["sensitivity", "--error", "point-drift", "--seed", "-1"],
     "error: seed must be a whole number of at least 0, got -1"),
    (["sensitivity", "--error", "point-drift", "--grid=-1,2", "--metrics", "ldtw"],
     "error: point-drift distance must be positive, got -1.0"),
    (["sensitivity", "--error", "stroke-insert", "--grid=0,1"],
     "error: stroke-insert count must be a whole number of at least 1, got 0.0"),
    (["sensitivity", "--error", "point-drift", "--grid", "1,inf", "--format", "json"],
     "error: magnitude grid must be finite, got inf"),
    (["invariance", "--transform", "sample-rate", "--grid", "1,inf"],
     "error: magnitude grid must be finite, got inf"),
    (["invariance", "--transform", "stroke-width", "--grid", "0,inf"],
     "error: magnitude grid must be finite, got inf"),
    (["sensitivity", "--error", "stroke-insert", "--grid", "1,1.5,2", "--metrics", "ldtw"],
     "error: stroke-insert count must be a whole number of at least 1, got 1.5"),
    (["invariance", "--transform", "stroke-width", "--grid", "0,0.5,1"],
     "error: stroke-width dilation must be a whole number of at least 0, got 0.5"),
    (["invariance", "--transform", "sample-rate", "--grid", "1,1e20"],
     "error: resample factor 1e+20 gives a stroke over 2**53 points"),
    # 5.3e16 rows (376 PiB), past any address space: numpy refuses before allocating
    (["invariance", "--transform", "sample-rate", "--grid", "1,1e15"],
     "error: resample factor 1000000000000000.0 gives too many points to hold"),
    (["sensitivity", "--error", "point-drift", "--grid", "1,x"], "error: bad grid '1,x'"),
    (["invariance", "--transform", "sample-rate", "--grid", ","], "error: empty grid"),
])
def test_bench_commands_reject_bad_grid_or_seed(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--synthetic", "2"])
    assert exc.value.code == message


@pytest.mark.parametrize("argv", [["sensitivity", "--error", "point-drift"],
                                  ["invariance", "--transform", "sample-rate"]])
def test_bench_commands_reject_a_negative_seed_on_a_corpus_directory(argv, tmp_path, rng):
    """With --corpus no synthetic draw judges the seed: the runner does, before
    any work (-1 used to be masked to 64 bits and the curves written)."""
    save_trajectory(random_traj(rng), tmp_path / "g.json")
    out = tmp_path / "curves.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--corpus", str(tmp_path), "--seed", "-1", "--out", str(out)])
    assert exc.value.code == "error: seed must be a whole number of at least 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "GT", "PRED"],
    ["sensitivity", "--synthetic", "2", "--error", "point-drift", "--grid", "1"],
    ["invariance", "--synthetic", "2", "--transform", "sample-rate", "--grid", "1"],
])
def test_unwritable_out_path_is_an_error_line(argv, tmp_path, rng):
    save_trajectory(random_traj(rng), tmp_path / "g.json")
    out = tmp_path / "no" / "such" / "x.csv"
    argv = [str(tmp_path / "g.json") if a in ("GT", "PRED") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == f"error: [Errno 2] No such file or directory: '{out}'"


# --- rasterize / convert -----------------------------------------------------

def test_rasterize_writes_matching_pgm(tmp_path, rng):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "t.json")
    code = main(["rasterize", str(tmp_path / "t.json"), str(tmp_path / "t.pgm")])
    assert code == 0
    assert (read_pgm(tmp_path / "t.pgm").pixels.tobytes()
            == mask_to_gray(rasterize(traj)).pixels.tobytes())


def test_rasterize_dilate_flag(tmp_path, rng):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "t.json")
    main(["rasterize", str(tmp_path / "t.json"), str(tmp_path / "d.pgm"),
          "--dilate", "2"])
    from trajeval import dilate3x3
    assert (read_pgm(tmp_path / "d.pgm").pixels.tobytes()
            == mask_to_gray(dilate3x3(rasterize(traj), 2)).pixels.tobytes())


@pytest.mark.parametrize("dilate", ["0", "2"])
def test_rasterized_glyph_is_a_ground_truth_for_its_own_trajectory(tmp_path, capsys, dilate):
    save_trajectory(make_synthetic_corpus(1, seed=3)[0], tmp_path / "g.json")
    assert main(["rasterize", str(tmp_path / "g.json"), str(tmp_path / "g.pgm"),
                 "--dilate", dilate]) == 0
    code, out = run_cli(["evaluate", str(tmp_path / "g.pgm"), str(tmp_path / "g.json"),
                         "--metrics", "aiou,iou"], capsys)
    assert code == 0
    row = csv_rows(out)[0]
    assert row["aiou"] == "1.000000" and row["error"] == ""
    # a widened ground truth lowers plain IoU; AIoU widens the prediction to match
    assert (row["iou"] == "1.000000") == (dilate == "0")


def test_rasterize_reports_bad_input(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["rasterize", str(tmp_path / "bad.json"), str(tmp_path / "o.pgm")])
    assert exc.value.code == \
        "error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


def test_rasterize_reports_unwritable_out_path(tmp_path, rng):
    save_trajectory(random_traj(rng), tmp_path / "t.json")
    out = tmp_path / "no" / "such" / "t.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["rasterize", str(tmp_path / "t.json"), str(out), "--dilate", "1000000000"])
    assert exc.value.code == f"error: [Errno 2] No such file or directory: '{out}'"


def test_convert_round_trip(tmp_path, rng):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "p.json", form="points")
    assert main(["convert", str(tmp_path / "p.json"), str(tmp_path / "s.json"),
                 "--to", "strokes"]) == 0
    assert main(["convert", str(tmp_path / "s.json"), str(tmp_path / "p2.json"),
                 "--to", "points"]) == 0
    back = load_trajectory(tmp_path / "p2.json")
    assert [(p.x, p.y) for p in back.drawn_points()] == \
           [(p.x, p.y) for p in traj.drawn_points()]


def test_convert_to_strokes_rejects_a_file_with_no_drawn_points(tmp_path):
    """An end-of-sequence marker alone has no stroke to write; the strokes form
    it would give cannot be read back, so `convert` fails before writing."""
    (tmp_path / "p.json").write_text(json.dumps(
        {"canvas": [64, 64], "points": [{"x": 3, "y": 4, "s": [0, 0, 1]}]}))
    out = tmp_path / "s.json"
    code = "import sys; sys.path.insert(0, sys.argv[1]); from trajeval.cli import main; " \
           "sys.exit(main(sys.argv[2:]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src, "convert", str(tmp_path / "p.json"),
                           str(out), "--to", "strokes"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1 and not out.exists()
    assert done.stderr == "error: strokes form needs at least one drawn point\n"


def test_readme_names_every_option_of_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == {"evaluate", "sensitivity", "invariance", "rasterize", "convert"}
    missing = sorted({f"{name} {option}"
                      for name, sub in commands.items() for action in sub._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings
                      if not re.search(re.escape(option) + r"(?![\w-])", readme)})
    assert not missing


# --- one parser per process --------------------------------------------------

def _outcome(argv, capsys):
    """(exit status or SystemExit message, stdout, stderr) of one `main` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_reuses_its_parser_without_carrying_options_over(sample_files,
                                                               monkeypatch, capsys):
    gt_dir, pred_dir = str(sample_files[0]), str(sample_files[1])
    calls = [["evaluate", gt_dir, pred_dir, "--normalize", "--dedupe", "--format", "json"],
             ["evaluate", gt_dir, pred_dir, "--canvas", "1"],
             ["evaluate", gt_dir, pred_dir, "--metrics", "aiou,aiou"],
             ["evaluate", gt_dir, pred_dir]]
    shared = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 2, "error: metric 'aiou' given twice", 0]
    monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser per call
    assert [_outcome(argv, capsys) for argv in calls] == shared


def test_main_builds_its_parser_once_per_process(sample_files, monkeypatch, capsys):
    argv = ["evaluate", str(sample_files[0]), str(sample_files[1])]
    main(argv)
    first = capsys.readouterr().out
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out == first != ""
    # build_parser still gives each caller its own: the top level and 5 commands
    assert build_parser() is not build_parser()
    assert len(built) == 12


def test_importing_the_cli_builds_no_parser():
    code = textwrap.dedent("""
        import argparse, sys
        sys.path.insert(0, sys.argv[1])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting_init
        import trajeval.cli
        print(len(built))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]

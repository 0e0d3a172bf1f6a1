"""Command-line interface tests: evaluation, benchmarks, conversion, and
byte-stable output."""

import csv
import io
import json

import numpy as np
import pytest

from trajeval import (load_trajectory, rasterize, read_mask_pgm,
                      save_trajectory, write_pgm)
from trajeval.cli import main
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


def test_bench_commands_demand_one_corpus_source(capsys):
    with pytest.raises(SystemExit):
        main(["sensitivity", "--error", "point-drift"])
    with pytest.raises(SystemExit):
        main(["sensitivity", "--synthetic", "4", "--corpus", "x",
              "--error", "point-drift"])


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
     "error: stroke-width dilation must be non-negative, got -1.0"),
    (["invariance", "--transform", "sample-rate", "--grid=2,1"],
     "error: magnitude grid must be ascending"),
    (["sensitivity", "--error", "point-drift", "--grid=3,1"],
     "error: magnitude grid must be ascending"),
    (["sensitivity", "--error", "point-drift", "--seed", "-1"],
     "error: seed must be non-negative for synthetic glyphs, got -1"),
    (["sensitivity", "--error", "point-drift", "--grid=-1,2", "--metrics", "ldtw"],
     "error: point-drift distance must be positive, got -1.0"),
    (["sensitivity", "--error", "stroke-insert", "--grid=0,1"],
     "error: stroke-insert count must be finite and at least 1, got 0.0"),
])
def test_bench_commands_reject_bad_grid_or_seed(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--synthetic", "2"])
    assert exc.value.code == message


# --- rasterize / convert -----------------------------------------------------

def test_rasterize_writes_matching_pgm(tmp_path, rng):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "t.json")
    code = main(["rasterize", str(tmp_path / "t.json"), str(tmp_path / "t.pgm")])
    assert code == 0
    assert read_mask_pgm(tmp_path / "t.pgm").same_bits(rasterize(traj))


def test_rasterize_dilate_flag(tmp_path, rng):
    traj = random_traj(rng)
    save_trajectory(traj, tmp_path / "t.json")
    main(["rasterize", str(tmp_path / "t.json"), str(tmp_path / "d.pgm"),
          "--dilate", "2"])
    from trajeval import dilate3x3
    assert read_mask_pgm(tmp_path / "d.pgm").same_bits(
        dilate3x3(rasterize(traj), 2))


def test_rasterize_reports_bad_input(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    code = main(["rasterize", str(tmp_path / "bad.json"), str(tmp_path / "o.pgm")])
    assert code == 1


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

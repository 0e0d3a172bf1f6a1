"""Golden-output guard: exact bytes of seeded CLI runs.

The stored files under tests/golden/ hold the output of the four
criterion-9 commands and of `evaluate` over a small generated pair
directory.  The directory mixes ground truths in points form, strokes form
and PGM with a missing prediction, a broken JSON file and an out-of-canvas
prediction, so the error column is exercised too.  Any change to the
seeded output of these commands fails here.
"""

from pathlib import Path

import numpy as np
import pytest

from trajeval import save_trajectory, write_pgm
from trajeval.cli import main
from trajeval.error_sim import (delete_strokes, drift_points, insert_strokes,
                                widen_strokes)

from conftest import random_traj, traj_from_strokes

GOLDEN = Path(__file__).parent / "golden"

SEEDED_COMMANDS = {
    "sensitivity_point_drift.csv":
        ["sensitivity", "--synthetic", "30", "--error", "point-drift", "--seed", "17"],
    "sensitivity_stroke_delete.json":
        ["sensitivity", "--synthetic", "30", "--error", "stroke-delete",
         "--seed", "17", "--format", "json"],
    "invariance_sample_rate.csv":
        ["invariance", "--synthetic", "30", "--transform", "sample-rate", "--seed", "17"],
    "invariance_stroke_width.json":
        ["invariance", "--synthetic", "30", "--transform", "stroke-width",
         "--seed", "17", "--format", "json"],
}

EVALUATE_FLAGS = ["--metrics", "aiou,iou,ldtw,dtw,rmse", "--rmse-resample"]


def write_pair_directory(root: Path) -> tuple[Path, Path]:
    """Seeded ground-truth and prediction directories, paired by basename."""
    rng = np.random.Generator(np.random.PCG64(2024))
    gt_dir, pred_dir = root / "gt", root / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    gts = [random_traj(rng, n_strokes=(2, 4), n_points=(3, 7)) for _ in range(7)]
    save_trajectory(gts[0], gt_dir / "a_points.json", form="points")
    save_trajectory(drift_points(gts[0], 1.5, 1), pred_dir / "a_points.json")
    save_trajectory(gts[1], gt_dir / "b_strokes.json", form="strokes")
    save_trajectory(insert_strokes(gts[1], 1, 2), pred_dir / "b_strokes.json")
    write_pgm(widen_strokes(gts[2], 1), gt_dir / "c_image.pgm")
    save_trajectory(drift_points(gts[2], 1.0, 3), pred_dir / "c_image.json")
    save_trajectory(gts[3], gt_dir / "d_missing.json")
    save_trajectory(gts[4], gt_dir / "e_broken.json")
    (pred_dir / "e_broken.json").write_text('{"canvas": [64, 64], "points": [')
    save_trajectory(gts[5], gt_dir / "f_outside.json", form="strokes")
    save_trajectory(traj_from_strokes([[(10.0, 12.5), (70.25, 30.0)],
                                       [(20.0, 20.0), (40.0, 81.5)]]),
                    pred_dir / "f_outside.json")
    save_trajectory(gts[6], gt_dir / "g_deleted.json")
    save_trajectory(delete_strokes(gts[6], 1, 4), pred_dir / "g_deleted.json")
    return gt_dir, pred_dir


def run_to_bytes(argv, out: Path) -> bytes:
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(SEEDED_COMMANDS))
def test_seeded_command_output_is_golden(name, tmp_path):
    got = run_to_bytes(SEEDED_COMMANDS[name], tmp_path / name)
    assert got == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evaluate_output_is_golden(fmt, tmp_path):
    gt_dir, pred_dir = write_pair_directory(tmp_path)
    got = run_to_bytes(["evaluate", str(gt_dir), str(pred_dir), *EVALUATE_FLAGS,
                        "--format", fmt], tmp_path / f"out.{fmt}")
    # the missing-prediction message names the file; strip the temporary root
    got = got.replace(str(tmp_path).encode(), b"<tmp>")
    assert got == (GOLDEN / f"evaluate.{fmt}").read_bytes()

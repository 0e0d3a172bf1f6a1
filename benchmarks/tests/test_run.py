"""Self-test of the benchmark harness.

    python -m pytest benchmarks/tests -q

Runs every workload at its full size with --seconds 0 (three timed rounds
and the set-ups back to back), so the whole file takes about 80 seconds on
two CPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layer_trace  # noqa: E402
import run  # noqa: E402

# Self times of all layers must cover the traced round's wall time to within
# this share; the remainder is the harness's own code between top-level calls.
SELF_TIME_TOLERANCE = 0.05


def _run(name, trace, seed=7):
    return run.run_benchmark(name, seed, seconds=0.0, trace=trace)


@pytest.fixture(scope="module")
def contract():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return {name: _run(name, False) for name in run.WORKLOADS}


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (_run(name, True), _run(name, True)) for name in run.WORKLOADS}


def test_benchmark_json_matches_the_harness(contract):
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.per_layer_contract()


def test_end_to_end_metrics_are_emitted_with_units(untraced, contract):
    for name, record in untraced.items():
        assert record["correct"] and record["failed"] == 0, (name, record["problems"])
        metrics = record["metrics"]
        for m in contract["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] > 0
        assert metrics["failed_share"] == {"value": 0.0, "unit": "ratio",
                                           "samples": record["attempted"]}
        sweeps = {k for k in metrics if k.startswith("sweep.")}
        if name == "sweep-synth":
            assert sweeps == {f"sweep.{k}_s" for k in run.SENSITIVITY + run.INVARIANCE}
        else:
            assert not sweeps
        line = run.contract_line(record, trace=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in contract["end_to_end"]]


def test_per_layer_metrics_are_emitted_with_units(traced_twice, contract):
    for name, (record, _) in traced_twice.items():
        assert record["correct"], (name, record["problems"])
        metrics = record["metrics"]
        for key, unit in layer_trace.table_units().items():
            assert metrics[key]["unit"] == unit, key
        for m in contract["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        line = run.contract_line(record, trace=True)
        assert list(line["metrics"]) == [m["name"] for m in contract["per_layer"]]


def test_layer_counts_repeat_exactly_for_a_fixed_seed(traced_twice):
    busy = {"sweep-synth": "raster.rasterize.calls", "evaluate-long": "cli.main.self_s",
            "train-sdtw": "losses.sdtw_grad.cells"}
    for name, (first, second) in traced_twice.items():
        assert first["metrics"][busy[name]]["value"] > 0, name
        for key in layer_trace.count_names():
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_self_times_sum_to_the_traced_wall_time(traced_twice):
    set_up_only = "bench.make_synthetic_corpus.self_s"
    for name, (record, _) in traced_twice.items():
        metrics = record["metrics"]
        total = sum(metrics[key]["value"] for key in layer_trace.table_units()
                    if key.endswith(".self_s") and key != set_up_only)
        wall = metrics["trace.wall_s"]["value"]
        assert abs(total - wall) <= SELF_TIME_TOLERANCE * wall, (name, total, wall)


def test_a_failed_output_check_fails_the_run(monkeypatch, capsys):
    losses = run.load_package().losses
    real = losses.total_loss
    monkeypatch.setattr(losses, "total_loss", lambda *args: real(*args) + 1.0)
    code = run.main(["--workload", "train-sdtw", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_a_checkout_without_the_package_exits_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "train-sdtw",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""

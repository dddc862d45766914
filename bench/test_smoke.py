"""Smoke test of the benchmark.

Every workload runs one pass at a tiny size, untraced and traced, and must
report every metric BENCHMARK.json names with all of its checks passing. The
checks themselves must turn a wrong answer into a failure.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "live", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_experiment_check_rejects_drifted_report():
    experiment = workloads.Experiment(3, "full", ROOT)
    experiment.reference = workloads.load_reference(experiment.seed)
    reports = {name: SimpleNamespace(**values) for name, values in experiment.reference.items()}
    result = workloads.PassResult(1, [1.0], reports)
    assert experiment.check(result) == (4, 0)
    drifted = dict(reports, pose_only=SimpleNamespace(**dict(
        vars(reports["pose_only"]), fde=reports["pose_only"].fde * (1 + 1e-8))))
    assert experiment.check(replace(result, output=drifted)) == (4, 1)


def test_record_check_rejects_changed_file(tmp_path):
    record = workloads.Record(3, "tiny", tmp_path)
    record.setup(NullTracer())
    result = record.run_pass(NullTracer())
    assert record.check(result) == (6, 0)
    path = result.output[0][0]
    data = bytearray(path.read_bytes())
    data[-40] ^= 0x01  # a low mantissa bit of the last sample
    path.write_bytes(bytes(data))
    assert record.check(result) == (6, 1)


def test_live_check_rejects_changed_prediction():
    live = workloads.Live(3, "tiny", ROOT)
    live.setup(NullTracer())
    result = live.run_pass(NullTracer())
    attempted, failed = live.check(result)
    assert failed == 0 and attempted == len(result.output.predictions) + 1
    key = next(iter(result.output.predictions))
    data = bytearray(result.output.predictions[key])
    data[-1] ^= 0x01
    result.output.predictions[key] = bytes(data)
    assert live.check(result) == (attempted, 1)

"""The benchmark's own tests: short runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs for two seconds against a real server.  The checks:
every metric ``BENCHMARK.json`` names is reported with its unit, no
operation fails at the default seed (``error_rate`` 0), the tier
assertions hold (``correct``), and the traced run's trace renders with
``python -m repro.telemetry.report``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def _result(completed: subprocess.CompletedProcess):
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run_reports_every_metric(workload):
    completed = _run(workload, trace=0)
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, completed.stdout
    assert result["correct"], completed.stdout
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "error_rate" in completed.stdout
    if workload == "serve_cold":
        assert "disk_latency_p50_ms" in completed.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_and_renders(workload):
    result = _result(_run(workload, trace=1))
    assert result["failed"] == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert metrics["trace.coverage"]["value"] >= 0.9
    trace = ROOT / ".perfbench" / f"trace-{workload}.jsonl"
    report = subprocess.run(
        [sys.executable, "-m", "repro.telemetry.report", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert report.returncode == 0, report.stderr
    assert "request" in report.stdout and "qasm.parse" in report.stdout
    layer = {
        "serve_hot": "sample.draw_ms",
        "serve_cold": "build.kernel_ms",
        "serve_features": "build.density_ms",
    }[workload]
    assert metrics[layer]["value"] > 0
    if workload == "serve_hot":
        assert metrics["pool.memory_hit_ratio"]["value"] == 1.0
        assert metrics["scheduler.builds"]["value"] == 6
    if workload == "serve_cold":
        assert metrics["store.get_ms"]["value"] > 0
        assert metrics["store.disk_latency_p50_ms"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("serve_hot", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_streams_are_seeded_and_distinct():
    for workload in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.stream(workload, 5), 30))
        again = list(itertools.islice(workloads.stream(workload, 5), 30))
        other = list(itertools.islice(workloads.stream(workload, 6), 30))
        assert first == again
        assert [r.seed for r in first] != [r.seed for r in other]
    cold = list(itertools.islice(workloads.stream("serve_cold", 5), 120))
    assert len({r.identity for r in cold}) == len(cold)
    assert all(
        r.initial_state < 2 ** workloads.QFT_BASIS_MAX_QUBITS
        for r in cold if r.family == "qft_basis"
    )
    assert all(r.record("x")["circuit"] == {"qasm": r.qasm} for r in cold)

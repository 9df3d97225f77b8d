"""A tiny run of each workload through the real command line.

Each run makes the minimum of three ops (``--seconds 0.01``), so the
whole file takes about two minutes on two vCPUs.  Run from the
repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

from layers import PER_LAYER
from run import END_TO_END, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_end_to_end_metric():
    # ``all`` runs each workload through the single-workload command.
    results = result_of(run_bench(ROOT, "--workload", "all", "--seed", "3",
                                  "--seconds", "0.01", "--trace", "0"))
    assert list(results) == sorted(WORKLOADS)
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
    # Each workload's peak RSS is its own, not an earlier workload's.
    rss = {name: r["metrics"]["peak_rss_mib"]["value"]
           for name, r in results.items()}
    assert rss["sweep-service"] < rss["plan-dgx2-gpt"]


def test_traced_run_reports_every_layer_metric():
    result = result_of(run_bench(ROOT, "--workload", "plan-dgx1-bert",
                                 "--seconds", "0.01", "--trace", "1"))
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == sorted(name for name, _ in PER_LAYER)
    assert metrics["core.device_mapping.mappings"] == 40320
    assert metrics["core.planner.emulations"] >= 1
    assert metrics["sim.fastpath.instructions"] > 0
    assert metrics["sim.samples_per_s"] > 0
    assert metrics["inference.scheduler.ms"] == 0
    assert metrics["trace.latency_p50_ms"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "work-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "plan-dgx1-bert", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

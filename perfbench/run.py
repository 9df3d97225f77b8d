"""End-to-end benchmark of the MPress reproduction (see README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-dgx1-bert --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).  With
``--workload all`` it runs each workload in a process of its own and
maps each workload to that object instead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import calib
import inputs
import service
from layers import PER_LAYER
from spans import Span, chrome_events
from stats import describe

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("plan-dgx1-bert", "plan-dgx2-gpt", "serve-sim-dgx1",
             "sweep-service")
END_TO_END = [("setup_s", "s"), ("latency_p50_ms", "ms"),
              ("peak_rss_mib", "MiB"), ("ops_per_s", "1/s")]
# Interpreter starts that only set up, on top of one per op, so that
# set-up time is a median of several samples even for 12 s ops.
SETUP_ONLY = 5
# A run makes at least this many ops, so that its latency is a median
# that one disturbed op cannot move (DGX-2 ops take ~12 s).
MIN_OPS = 3
_CHILD_TIMEOUT_S = 90.0


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: Dict, env: Dict[str, str], workdir: str) -> Dict:
    """One op interpreter; returns its result plus ``setup_s``."""
    with tempfile.TemporaryFile("w+", dir=workdir) as errors:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "opchild.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors,
            text=True, env=env)
        watchdog = threading.Timer(_CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.stdin.write(json.dumps(request))
            proc.stdin.close()
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        errors.seek(0)
        if ready.strip() != "READY" or proc.returncode != 0:
            return {"error": f"op exited {proc.returncode}: {errors.read()[-2000:]}"}
        lines = rest.strip().splitlines()
        out = json.loads(lines[-1]) if lines else {}
        out["setup_s"] = setup_s
        return out


def run_ops(workload: str, seed: int, seconds: float, trace: bool,
            env: Dict[str, str], workdir: str) -> Dict:
    """Plan and serving workloads: one fresh interpreter per op."""
    request = {"workload": workload, "trace": False}
    if workload == "serve-sim-dgx1":
        request["inputs"] = inputs.serving_inputs(seed)
    setups = []
    for index in range(SETUP_ONLY):
        # The first also reports the Table II memory demand.
        start = run_child(dict(request, setup_only=True,
                               demand=index == 0 and workload.startswith("plan-")),
                          env, workdir)
        if "error" in start:
            raise RuntimeError(start["error"])
        setups.append(start)
    ops: List[Dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        kinds = {op["traced"] for op in ops}
        if (elapsed >= seconds and len(ops) >= MIN_OPS
                and (not trace or len(kinds) == 2)):
            break
        # Traced runs alternate traced and untraced ops, traced first.
        traced = trace and len(ops) % 2 == 0
        op = run_child(dict(request, trace=traced), env, workdir)
        op["traced"] = traced
        ops.append(op)
    return {"setups": setups, "ops": ops}


def summarize_ops(raw: Dict) -> Dict:
    ops = raw["ops"]
    good = [op for op in ops if "error" not in op and not op.get("failures")]
    failures = [op.get("error") or "; ".join(op["failures"])
                for op in ops if op not in good]
    # Identity and simulated figures must repeat exactly across ops.
    for field in ("identity", "sim"):
        values = {json.dumps(op[field], sort_keys=True) for op in good}
        if len(values) > 1:
            failures.append(f"{field} differs across ops: {sorted(values)}")
    untraced = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    for op in good:
        # The probe ran inside the op's wall time; take it out.
        op["speed"] = calib.speed_factor(op["probe_s"])
        op["raw_ms"] = (op["wall_s"] - sum(op["probe_s"])) * 1e3
        op["scaled_ms"] = op["raw_ms"] / op["speed"]
    timed = untraced or good
    speed = statistics.median(op["speed"] for op in timed) if timed else 1.0
    setups = [s["setup_s"] / speed for s in raw["setups"] + [
        op for op in ops if not op["traced"] and "setup_s" in op]]
    out = {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": failures,
        "n": len(untraced),
        "n_setup": len(setups),
        "speed": speed,
        "setup_s": statistics.median(setups),
    }
    if timed:
        out.update({
            "latency_ms": statistics.median(op["scaled_ms"] for op in timed),
            "latency_summary": describe([op["scaled_ms"] for op in timed]),
            "latency_raw_ms":
                statistics.median(op["raw_ms"] for op in timed),
            "ops_per_s": len(timed) / sum(op["scaled_ms"] / 1e3 for op in timed),
            "rss_mib": statistics.median(op["rss_mib"] for op in timed),
        })
    out["demand"] = raw["setups"][0].get("demand")
    if good:
        out["identity"] = good[0]["identity"]
        out["sim"] = good[0]["sim"]
    if traced:
        layers = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        traced_ms = statistics.median(op["scaled_ms"] for op in traced)
        layers["trace.latency_p50_ms"] = traced_ms
        if untraced:
            layers["trace.overhead_pct"] = 100.0 * (traced_ms / out["latency_ms"] - 1)
        out["layers"] = layers
        out["spans"] = traced[0]["spans"]
    return out


def summarize_service(raw: Dict) -> Dict:
    failures, failed = service.check(raw)
    fig = service.figures(raw)
    out = {
        "attempted": max(1, len(raw["jobs"])),
        "failed": failed if raw["jobs"] else 1,
        "failures": failures,
        "n_setup": len(raw["boots_s"]),
        # The server runs unwrapped: every run of this workload is
        # the same client-side measurement, so tracing costs nothing.
        "layers": dict(fig.pop("layers"), **{
            "trace.latency_p50_ms": fig.get("latency_ms", 0.0),
            "trace.overhead_pct": 0.0}),
    }
    out.update(fig)
    return out


def metrics_of(summary: Dict, trace: bool) -> Dict[str, Dict]:
    if not trace:
        values = {"setup_s": summary["setup_s"],
                  "latency_p50_ms": summary.get("latency_ms"),
                  "peak_rss_mib": summary.get("rss_mib"),
                  "ops_per_s": summary.get("ops_per_s")}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END if values[name] is not None}
    layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    layers.update(summary.get("sim", {}))
    layers.update(summary.get("layers", {}))
    layers["host.speed_factor"] = summary["speed"]
    layers["host.latency_raw_p50_ms"] = summary.get("latency_raw_ms", 0.0)
    demand = summary.get("demand")
    if demand:
        layers["core.profiler.demand_error_pct"] = abs(demand["error_pct"][0])
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER}


def report(workload: str, seed: int, summary: Dict, metrics: Dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"{workload} (seed {seed}): {summary['attempted']} ops attempted, "
          f"{summary['failed']} failed; machine-speed factor "
          f"{summary['speed']:.3f} (probe vs {calib.REFERENCE_S * 1e3:.1f} ms "
          "reference)")
    for name, metric in metrics.items():
        note = ""
        if name == "latency_p50_ms":
            tail = "".join(f"; {key} {value:.1f} ms"
                           for key, value in summary["latency_summary"].items()
                           if key not in ("n", "p50"))
            note = (f"  (n={summary['n']}{tail}; unscaled "
                    f"{summary['latency_raw_ms']:.1f} ms)")
        elif name == "setup_s":
            note = f"  (median of {summary['n_setup']} starts)"
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}{note}")
    if "identity" in summary:
        print(f"  identity: {json.dumps(summary['identity'], sort_keys=True)}")
        for name, value in sorted(summary["sim"].items()):
            print(f"  {name:36s} {value:14.4f}")
    demand = summary.get("demand")
    if demand:
        parts = [f"{label} {got:.1f} GB vs {paper:.1f} ({err:+.1f}%)"
                 for label, got, paper, err in zip(
                     ("total", "max", "min"), demand["measured_gb"],
                     demand["paper_gb"], demand["error_pct"])]
        print("  memory demand vs paper Table II: " + ", ".join(parts))
    for failure in summary["failures"][:10]:
        print(f"  CHECK FAILED: {failure}")
    if not summary["failures"]:
        print("  output checks: ok")


def write_trace(root: str, workload: str, seed: int, spans: List) -> str:
    """Chrome trace of one traced op's spans, written at run end."""
    objs = [Span(i, name, start, end, parent, counts)
            for i, (name, start, end, parent, counts) in enumerate(spans)]
    origin = min((s.start for s in objs), default=0.0)
    path = os.path.join(root, "perfbench", "out",
                        f"trace-{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": chrome_events(objs, 1, origin)}, handle)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str) -> Dict:
    env = child_env(root)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(root, "perfbench"))
    try:
        if workload == "sweep-service":
            summary = summarize_service(service.run(workdir, env, seed, seconds))
        else:
            summary = summarize_ops(
                run_ops(workload, seed, seconds, trace, env, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = metrics_of(summary, trace)
    report(workload, seed, summary, metrics)
    if trace and summary.get("spans"):
        print(f"  spans: {write_trace(root, workload, seed, summary['spans'])}")
    expected = PER_LAYER if trace else END_TO_END
    complete = len(metrics) == len(expected)
    return {
        "correct": not summary["failures"] and complete,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    # The checks read cache keys through the program's own jobspec.
    sys.path.insert(0, os.path.join(root, "src"))
    # Byte-compile up front, untimed: users run from a warm .pyc cache.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), root)
        print(json.dumps(result, sort_keys=True))
        return 0
    # One process per workload: peak RSS of children is a process-wide
    # high-water mark, which an earlier workload's ops would set.
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

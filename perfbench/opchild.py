"""One benchmark op in a fresh interpreter, as a CLI user pays for it.

Reads a JSON request on stdin, builds the op's inputs, prints
``READY`` (the parent times set-up up to that line), runs the op
under the calibration sampler, checks the outputs untimed, and prints
one JSON result line.  An op that raises reports the error instead;
the exit code is 0 either way so the parent can count it.

A set-up-only request stops after ``READY``; with ``demand`` it then
reports the model's memory demand against paper Table II, once per
run and outside every op.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import calib

# Paper Table II (GB, total / max stage / min stage), DGX-1 partitions.
PAPER_DEMAND_GB = {
    "bert-0.64": (227.0, 50.6, 6.4),
    "gpt-15.4": (486.7, 84.5, 37.2),
}


def _setup(request):
    """Imports and inputs; returns (op callable, checker)."""
    from repro import bert_variant, dgx1_server, dgx2_server, gpt_variant

    workload = request["workload"]
    if workload in ("plan-dgx1-bert", "plan-dgx2-gpt"):
        from repro.core.mpress import MPress
        from repro.job import dapple_job, pipedream_job

        if workload == "plan-dgx1-bert":
            job = pipedream_job(bert_variant(0.64), dgx1_server())
        else:
            job = dapple_job(gpt_variant(15.4), dgx2_server())
        return (lambda: MPress(job).run()), _check_plan
    if workload == "serve-sim-dgx1":
        from repro.inference import InferenceConfig, run_serving

        spec = request["inputs"]
        config = InferenceConfig(
            arrival="trace", trace=tuple(tuple(e) for e in spec["trace"]),
            kv_swap=spec["kv_swap"], kv_pool_mib=spec["kv_pool_mib"],
            max_batch=spec["max_batch"])
        model, server = gpt_variant(5.3), dgx1_server()
        return (lambda: run_serving(model, server, config)), _check_serving
    raise SystemExit(f"unknown op workload {workload!r}")


def _demand(workload: str) -> dict:
    """Per-stage peak demand of the workload's model on the DGX-1
    partition that Table II uses, against the paper's values."""
    from repro import bert_variant, dgx1_server, gpt_variant
    from repro.core.profiler import Profiler
    from repro.job import dapple_job, pipedream_job

    if workload == "plan-dgx1-bert":
        key, job = "bert-0.64", pipedream_job(bert_variant(0.64), dgx1_server())
    else:
        key, job = "gpt-15.4", dapple_job(gpt_variant(15.4), dgx1_server())
    measured = [p / 1e9 for p in Profiler(job).run().stage_peaks]
    got = (sum(measured), max(measured), min(measured))
    paper = PAPER_DEMAND_GB[key]
    return {"measured_gb": got, "paper_gb": paper,
            "error_pct": [100.0 * (g - p) / p for g, p in zip(got, paper)]}


def _check_plan(request, result) -> dict:
    from repro.runtime.task import trace_digest
    from repro.sim.audit import audit_simulation

    failures = []
    report = result.planner_report
    if not result.ok:
        failures.append(f"simulation failed: {result.simulation.oom}")
    if not report.feasible:
        failures.append("planner reports the plan infeasible")
    if result.ok:
        audit = audit_simulation(result.simulation)
        failures.extend(f"audit: {v}" for v in audit.violations[:5])
    return {
        "failures": failures,
        "identity": {
            "device_map": list(result.plan.device_map),
            "mapping_score":
                report.mapping.score if report.mapping is not None else None,
            "trace_digest":
                trace_digest(result.simulation.trace) if result.ok else None,
        },
        "sim": {"sim.samples_per_s": result.samples_per_second},
    }


def _check_serving(request, outcome) -> dict:
    from repro.runtime.task import trace_digest

    trace = request["inputs"]["trace"]
    metrics = outcome.metrics
    failures = []
    if not outcome.simulation.ok:
        failures.append(f"simulation failed: {outcome.simulation.oom}")
    if len(outcome.tape.completion) != len(trace) or metrics.n_requests != len(trace):
        failures.append(f"{len(outcome.tape.completion)} of {len(trace)} "
                        "requests completed")
    expected_tokens = sum(entry[2] for entry in trace)
    if metrics.total_output_tokens != expected_tokens:
        failures.append(f"{metrics.total_output_tokens} output tokens, "
                        f"trace asks for {expected_tokens}")
    # audit_simulation is not run: it raises AttributeError on serving
    # results (ServingJobView has no stage_plan), an open defect.
    return {
        "failures": failures,
        "identity": {"trace_digest": trace_digest(outcome.simulation.trace)},
        "sim": {
            "sim.tokens_per_s": metrics.tokens_per_second,
            "sim.ttft_p50_ms": metrics.ttft_p50 * 1e3,
            "sim.ttft_p95_ms": metrics.ttft_p95 * 1e3,
            "sim.tpot_p50_ms": metrics.tpot_p50 * 1e3,
            "sim.decode_stall_ms": metrics.decode_stall_seconds * 1e3,
            "inference.kvcache.swapped_bytes": metrics.swapped_bytes,
            "inference.kvcache.swapped_requests": metrics.swapped_requests,
            "inference.kvcache.preemptions": metrics.preemptions,
        },
    }


def main() -> int:
    request = json.loads(sys.stdin.read())
    op, check = _setup(request)
    print("READY", flush=True)
    if request.get("setup_only"):
        if request.get("demand"):
            print(json.dumps({"demand": _demand(request["workload"])}))
        return 0
    buf = calib.new_buffer()
    instrumentation = None
    if request.get("trace"):
        from layers import Instrumentation
        from spans import Recorder

        instrumentation = Instrumentation(Recorder())
        instrumentation.install()

    out = {}
    try:
        from repro.sim.lowering import skeleton_build_count

        builds = skeleton_build_count()
        with calib.Sampler(buf) as sampler:
            start = time.perf_counter()
            result = op()
            out["wall_s"] = time.perf_counter() - start
        out["probe_s"] = sampler.samples
        if instrumentation is not None:
            # Read before the checks run, so they add no spans.
            out["layers"] = instrumentation.layer_metrics(
                skeleton_build_count() - builds)
            out["spans"] = [
                [s.name, s.start, s.end, s.parent, s.counts]
                for s in instrumentation.recorder.spans]
    except Exception:   # noqa: BLE001 — reported to the parent as a failed op
        out["error"] = traceback.format_exc()
    # High-water mark of the op itself, before the checks allocate,
    # less the probe's buffer.
    out["rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                      - calib.BUFFER_MIB)
    if "error" not in out:
        try:
            out.update(check(request, result))
        except Exception:   # noqa: BLE001 — a crashing check fails the op
            out["error"] = traceback.format_exc()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

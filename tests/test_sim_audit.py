"""Audit module tests: clean runs pass, corrupted traces are caught."""

from repro.core.plan import Action, PlanEntry, empty_plan
from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.sim.audit import audit_simulation
from repro.sim.executor import simulate
from repro.sim.trace import TraceEvent

from tests.conftest import tiny_job


def test_clean_baseline_run_passes():
    result = simulate(tiny_job(), strict=False)
    report = audit_simulation(result)
    assert report.ok, report.violations


def test_clean_compacted_run_passes():
    job = tiny_job()
    plan = empty_plan(job.n_stages)
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    for cls in classes:
        if cls.kind is TensorKind.ACTIVATION and cls.stage in (0, 1):
            plan.assign(PlanEntry(cls=cls, action=Action.CPU_SWAP))
        elif cls.kind is TensorKind.OPTIMIZER_STATE and cls.stage == 0:
            plan.assign(PlanEntry(cls=cls, action=Action.CPU_SWAP))
    result = simulate(job, plan, strict=False)
    report = audit_simulation(result)
    assert report.ok, report.violations


def test_oom_run_is_flagged():
    from repro.units import MiB

    result = simulate(tiny_job(), strict=True, gpu_capacity_override=4 * MiB)
    report = audit_simulation(result)
    assert not report.ok


def test_missing_backward_detected():
    result = simulate(tiny_job(), strict=False)
    # Corrupt the trace: drop one backward event.
    victim = next(e for e in result.trace.events if e.kind == "bwd")
    result.trace.events.remove(victim)
    report = audit_simulation(result)
    assert any("unpaired" in v for v in report.violations)


def test_causality_violation_detected():
    result = simulate(tiny_job(), strict=False)
    fwd = next(e for e in result.trace.events if e.kind == "fwd")
    # Inject a backward that starts before its forward ended.
    result.trace.events.append(
        TraceEvent("bogus", "bwd", fwd.device, fwd.microbatch,
                   start=fwd.start - 1.0, end=fwd.start - 0.5, layer=fwd.layer)
    )
    report = audit_simulation(result)
    assert any("before forward" in v for v in report.violations)


def test_swap_imbalance_detected():
    result = simulate(tiny_job(), strict=False)
    result.trace.events.append(
        TraceEvent("lost", "swap_out", 0, 0, 0.0, 0.1)
    )
    report = audit_simulation(result)
    assert any("swap-outs" in v for v in report.violations)


def test_compute_overlap_detected():
    result = simulate(tiny_job(), strict=False)
    first = next(e for e in result.trace.events if e.kind == "fwd")
    result.trace.events.append(
        TraceEvent("overlap", "opt", first.device, -1,
                   start=first.start, end=first.end + 0.1)
    )
    report = audit_simulation(result)
    assert any("overlap" in v for v in report.violations)


# -- fault-aware invariants ---------------------------------------------------


def _faulted_result():
    from repro.faults import FaultKind, FaultSchedule, FaultSpec

    job = tiny_job()
    base = simulate(job, strict=False)
    faults = FaultSchedule(faults=(
        FaultSpec(kind=FaultKind.DEVICE_SLOWDOWN, start=0.0,
                  duration=base.makespan, device=0, factor=0.5),
        FaultSpec(kind=FaultKind.DEVICE_FAIL, start=base.makespan * 0.5,
                  device=2, restart_latency=0.01),
    ))
    return simulate(job, strict=False, faults=faults)


def test_clean_faulted_run_passes():
    result = _faulted_result()
    assert result.resilience is not None and result.resilience.failures
    report = audit_simulation(result)
    assert report.ok, report.violations


def test_compute_inside_outage_detected():
    result = _faulted_result()
    failure = result.resilience.failures[0]
    midpoint = failure.time + failure.recovery_seconds / 2
    result.trace.events.append(
        TraceEvent("ghost.fwd", "fwd", failure.device, 0,
                   start=midpoint, end=failure.resume_time)
    )
    report = audit_simulation(result)
    assert any("outage" in v for v in report.violations)


def test_tampered_reload_bytes_detected():
    import dataclasses

    result = _faulted_result()
    failure = result.resilience.failures[0]
    result.resilience.failures[0] = dataclasses.replace(
        failure, reload_bytes=failure.reload_bytes + 4096
    )
    report = audit_simulation(result)
    assert any("reload" in v for v in report.violations)


def test_tampered_reload_seconds_detected():
    import dataclasses

    result = _faulted_result()
    failure = result.resilience.failures[0]
    result.resilience.failures[0] = dataclasses.replace(
        failure, reload_seconds=failure.reload_seconds * 2 + 1.0
    )
    report = audit_simulation(result)
    assert any("transfer model" in v for v in report.violations)


def _spilling_serving_outcome():
    from repro.hardware.server import dgx1_server
    from repro.inference import InferenceConfig, run_serving
    from repro.models import gpt_variant

    # A seeded episode whose KV pool overflows, so blocks spill over
    # NVLink (the d2d policy) and the trace carries swap pairs.
    config = InferenceConfig(
        seed=3, n_requests=10, arrival_rate=32.0,
        prompt_mean=128, prompt_max=256, output_mean=24, output_max=64,
        max_batch=6, kv_pool_mib=199, kv_swap="d2d",
    )
    return run_serving(gpt_variant(5.3), dgx1_server(), config)


def test_d2d_serving_episode_audits_clean():
    outcome = _spilling_serving_outcome()
    assert outcome.metrics.swapped_bytes > 0
    assert audit_simulation(outcome.simulation).violations == []
    # The outcome itself is accepted and audited through .simulation.
    assert audit_simulation(outcome).violations == []


def test_serving_audit_still_checks_swap_pairing():
    result = _spilling_serving_outcome().simulation
    victim = next(e for e in result.trace.events if e.kind == "swap_in")
    result.trace.events.remove(victim)
    report = audit_simulation(result)
    assert any("swap-outs vs" in v for v in report.violations)

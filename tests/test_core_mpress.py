"""MPress facade and run_system dispatch tests."""

import pytest

from repro.core.mpress import MPress, run_system
from repro.core.planner import Planner, PlannerConfig
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.runtime.task import trace_digest
from repro.sim.executor import simulate
from repro.sim.fastpath import fast_path_runs, reference_runs
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model


def _pressured_job():
    return tiny_job(
        server=small_server(gpu_memory=48 * MiB),
        model=tiny_model(n_layers=10),
        microbatch_size=8,
        microbatches_per_minibatch=6,
    )


class TestMPress:
    def test_plan_is_cached(self):
        mpress = MPress(_pressured_job())
        assert mpress.build_plan() is mpress.build_plan()

    def test_run_returns_successful_result(self):
        result = MPress(_pressured_job()).run()
        assert result.ok
        assert result.tflops > 0
        assert result.samples_per_second > 0

    def test_planner_report_available_before_run(self):
        mpress = MPress(_pressured_job())
        assert mpress.planner_report is not None

    def test_custom_config_respected(self):
        config = PlannerConfig(allow_d2d=False, mapping_mode="identity")
        result = MPress(_pressured_job(), config).run()
        assert result.plan.device_map == list(range(4))


def _fingerprint(result) -> tuple:
    """What a reused emulation must share with a strict replay."""
    memory = result.memory
    return (
        result.ok,
        str(result.oom),
        result.minibatch_time.hex(),
        result.makespan,
        memory.peaks(),
        memory.host.peak,
        [book.timeline for book in memory.gpus],
        memory.host.timeline,
        trace_digest(result.trace),
        result.resilience,
    )


def _strict_replay(mpress: MPress, result):
    return simulate(mpress.job, result.plan, strict=True,
                    prefetch_lead=Planner.PREFETCH_LEAD)


class TestStrictRunReuse:
    """``MPress.run`` reuses the accepted emulation only when a strict
    replay of the same plan would do exactly the same."""

    @pytest.mark.parametrize("faults", [None, FaultSchedule()],
                             ids=["no-schedule", "empty-schedule"])
    def test_fitting_plan_reuses_the_accepted_emulation(self, faults):
        mpress = MPress(_pressured_job(), faults=faults)
        before = fast_path_runs()
        result = mpress.run()
        report = result.planner_report
        assert result.ok
        assert result.plan.entries  # compacted, not the empty plan
        # The profiler's run plus one per emulation: no strict replay.
        assert fast_path_runs() == before + report.n_emulations + 1
        assert _fingerprint(result.simulation) == _fingerprint(
            _strict_replay(mpress, result))

    def test_overflowing_emulation_replays_strictly(self):
        config = PlannerConfig(allow_recompute=False, allow_cpu_swap=False,
                               allow_d2d=False)
        mpress = MPress(_pressured_job(), config)
        before = fast_path_runs()
        result = mpress.run()
        report = result.planner_report
        assert max(report.final_peaks) > mpress.job.server.gpu_memory
        assert fast_path_runs() == before + report.n_emulations + 2
        assert not result.ok
        assert result.simulation.oom is not None
        assert _fingerprint(result.simulation) == _fingerprint(
            _strict_replay(mpress, result))

    def test_fault_schedule_replays_strictly(self):
        faults = FaultSchedule(faults=(
            FaultSpec(kind=FaultKind.DEVICE_SLOWDOWN, start=0.0,
                      duration=1.0, device=0, factor=0.5),
        ))
        before = reference_runs()
        result = MPress(_pressured_job(), faults=faults).run()
        assert reference_runs() == before + 1
        assert result.simulation.resilience is not None

    def test_second_run_is_equal_but_independent(self):
        mpress = MPress(_pressured_job())
        first, second = mpress.run(), mpress.run()
        assert first.plan is second.plan
        assert first.simulation is not second.simulation
        assert _fingerprint(first.simulation) == _fingerprint(second.simulation)


class TestRunSystem:
    def test_none_system_is_uncompacted(self):
        job = tiny_job()  # fits without compaction
        result = run_system(job, "none")
        assert result.ok
        assert not result.plan.entries

    def test_none_system_ooms_under_pressure(self):
        result = run_system(_pressured_job(), "none")
        assert not result.ok

    @pytest.mark.parametrize("system", ["recomputation", "gpu-cpu-swap", "mpress"])
    def test_memory_saving_systems_survive_pressure(self, system):
        result = run_system(_pressured_job(), system)
        assert result.ok, system

    def test_mpress_at_least_matches_swap_baseline(self):
        job = _pressured_job()
        swap = run_system(job, "gpu-cpu-swap")
        mpress = run_system(job, "mpress")
        assert mpress.tflops >= swap.tflops

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_system(_pressured_job(), "megatron")


class TestRunSystemReports:
    def test_none_feasibility_flag_matches_fit(self):
        fits = run_system(tiny_job(), "none")
        assert fits.planner_report.feasible
        pressured = run_system(_pressured_job(), "none")
        assert not pressured.planner_report.feasible

    def test_result_exposes_simulation(self):
        result = run_system(tiny_job(), "none")
        assert result.simulation.makespan > 0
        assert len(result.simulation.peak_memory_per_gpu) == 4

"""Planner tests (Section III-D) on capacity-constrained tiny jobs."""

import pytest

from repro import bert_variant, dgx1_server, pipedream_job
from repro.core.emulator import Emulator
from repro.core.plan import Action
from repro.core.planner import Planner, PlannerConfig, baseline_config
from repro.graph.tensor import TensorKind
from repro.sim.executor import simulate
from repro.sim.lowering import skeleton_build_count
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model


def _pressured_job(gpu_memory=48 * MiB, **kwargs):
    """A job whose early stages overflow the given capacity."""
    defaults = dict(
        server=small_server(gpu_memory=gpu_memory),
        model=tiny_model(n_layers=10),
        microbatch_size=8,
        microbatches_per_minibatch=6,
    )
    defaults.update(kwargs)
    return tiny_job(**defaults)


class TestFullPlanner:
    def test_plan_makes_job_fit(self):
        job = _pressured_job()
        base = simulate(job, strict=True)
        assert not base.ok  # sanity: pressure exists
        plan, report = Planner(job, PlannerConfig()).build()
        result = simulate(job, plan, strict=True)
        assert result.ok
        assert report.feasible

    def test_no_pressure_means_empty_plan(self):
        job = tiny_job()  # 2 GiB per GPU, plenty
        plan, report = Planner(job, PlannerConfig()).build()
        assert not plan.entries
        assert report.feasible

    def test_emulation_trajectory_recorded(self):
        job = _pressured_job()
        _, report = Planner(job, PlannerConfig()).build()
        assert report.emulation_times
        assert report.final_time > 0

    def test_final_time_is_the_returned_plans_emulation(self):
        # BERT-1.67's last refine trial overflows GPU 1 and is
        # rejected, so the last emulated time is not the plan's.
        job = pipedream_job(bert_variant(1.67), dgx1_server())
        plan, report = Planner(job, PlannerConfig()).build()
        assert report.emulation_times[-1] != report.final_time
        assert report.final_time == Emulator(job).run(plan).minibatch_time

    def test_build_shares_one_lowering_skeleton(self):
        job = tiny_job(server=small_server(gpu_memory=64 * MiB),
                       model=tiny_model(n_layers=12, hidden=512),
                       microbatches_per_minibatch=6)
        before = skeleton_build_count()
        _, report = Planner(job, PlannerConfig()).build()
        # Exactly two builds, independent of candidate count: the
        # profiler's instrumented baseline and the emulator's shared
        # skeleton.  Every tighten round and refine trial reuses the
        # latter.
        assert report.n_emulations > 2
        assert skeleton_build_count() == before + 2
        assert report.feasible

    def test_only_overflowing_stages_touched(self):
        job = _pressured_job()
        plan, _ = Planner(job, PlannerConfig()).build()
        touched = {entry.cls.stage for entry in plan.entries.values()}
        # The last stage is the lightest and never needs compaction.
        assert 3 not in touched


class TestBaselineConfigs:
    def test_recomputation_only_uses_recompute(self):
        job = _pressured_job()
        plan, _ = Planner(job, baseline_config("recomputation")).build()
        actions = {e.action for e in plan.entries.values()}
        assert actions <= {Action.RECOMPUTE}

    def test_gpu_cpu_swap_only_swaps(self):
        job = _pressured_job()
        plan, _ = Planner(job, baseline_config("gpu-cpu-swap")).build()
        actions = {e.action for e in plan.entries.values()}
        assert actions <= {Action.CPU_SWAP}

    def test_d2d_only_uses_d2d(self):
        job = _pressured_job()
        plan, _ = Planner(job, baseline_config("d2d-only")).build()
        actions = {e.action for e in plan.entries.values()}
        assert actions <= {Action.D2D_SWAP}

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            baseline_config("zero")

    def test_recomputation_cannot_reduce_state(self):
        # Shrink capacity below model state: recomputation alone must
        # be infeasible (the paper's Bert-4B recompute failure mode).
        job = _pressured_job(gpu_memory=16 * MiB)
        plan, report = Planner(job, baseline_config("recomputation")).build()
        assert not report.feasible
        assert not simulate(job, plan, strict=True).ok

    def test_mpress_beats_gpu_cpu_swap_under_pressure(self):
        job = _pressured_job(gpu_memory=40 * MiB)
        swap_plan, _ = Planner(job, baseline_config("gpu-cpu-swap")).build()
        mpress_plan, _ = Planner(job, baseline_config("mpress")).build()
        swap = simulate(job, swap_plan, strict=False)
        mpress = simulate(job, mpress_plan, strict=False)
        assert mpress.minibatch_time <= swap.minibatch_time


class TestOptimizerPolicy:
    def test_optimizer_state_swapped_first(self):
        job = _pressured_job(gpu_memory=32 * MiB)
        plan, _ = Planner(job, PlannerConfig()).build()
        opt_entries = [
            e for e in plan.entries.values()
            if e.cls.kind is TensorKind.OPTIMIZER_STATE
        ]
        assert opt_entries
        assert all(e.action is Action.CPU_SWAP for e in opt_entries)


class TestDeviceMapping:
    def test_identity_mode_keeps_order(self):
        job = _pressured_job()
        config = PlannerConfig(mapping_mode="identity")
        plan, report = Planner(job, config).build()
        assert plan.device_map == list(range(job.n_stages))
        assert report.mapping is None

    def test_search_runs_on_asymmetric_topology(self):
        job = _pressured_job()
        plan, report = Planner(job, PlannerConfig()).build()
        assert report.mapping is not None
        assert sorted(plan.device_map) == list(range(job.n_stages))

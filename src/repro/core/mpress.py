"""MPress facade: static planning plus runtime execution.

:class:`MPress` wires the whole Figure 5 pipeline: profile, plan
(with device mapping, cost model, rewriter, emulator iterations),
then execute the plan on the simulated server under real memory
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.emulator import EmulationReport
from repro.core.plan import MemorySavingPlan
from repro.core.planner import Planner, PlannerConfig, PlannerReport, baseline_config
from repro.faults.spec import FaultSchedule
from repro.job import TrainingJob
from repro.sim.executor import SimulationResult, simulate


@dataclass
class MPressResult:
    """Plan, planning trajectory, and the strict training run."""

    job: TrainingJob
    plan: MemorySavingPlan
    planner_report: PlannerReport
    simulation: SimulationResult

    @property
    def ok(self) -> bool:
        return self.simulation.ok

    @property
    def tflops(self) -> float:
        return self.simulation.tflops

    @property
    def samples_per_second(self) -> float:
        return self.simulation.samples_per_second


class MPress:
    """The complete system: plan once offline, then train."""

    def __init__(
        self,
        job: TrainingJob,
        config: Optional[PlannerConfig] = None,
        faults: Optional[FaultSchedule] = None,
        reserve_bytes: int = 0,
    ):
        self.job = job
        self.config = config if config is not None else PlannerConfig()
        self.faults = faults
        self.reserve_bytes = reserve_bytes
        self._plan: Optional[MemorySavingPlan] = None
        self._report: Optional[PlannerReport] = None
        # The planner's emulation of ``_plan``, until run() takes it.
        self._accepted: Optional[EmulationReport] = None

    def build_plan(self) -> MemorySavingPlan:
        """Run MPress Static (profiler/planner/rewriter/emulator loop)."""
        if self._plan is None:
            planner = Planner(self.job, self.config, faults=self.faults,
                              reserve_bytes=self.reserve_bytes)
            self._plan, self._report = planner.build()
            self._accepted = planner.accepted
        return self._plan

    @property
    def planner_report(self) -> PlannerReport:
        if self._report is None:
            self.build_plan()
        return self._report

    def run(self) -> MPressResult:
        """Plan, then execute under strict memory constraints.

        A fault-free run whose accepted emulation saw no overflow
        reuses that replay as the strict run: the emulator differs
        only in not raising where a book peaks above its capacity.
        An overflow (the strict run's OOM) or a fault schedule (which
        the emulator does not inject) replays the plan with
        ``strict=True``, as does a second call, so no two results
        share a simulation.
        """
        plan = self.build_plan()
        simulation = self._take_accepted(plan)
        if simulation is None:
            simulation = simulate(
                self.job,
                plan,
                strict=True,
                prefetch_lead=Planner.PREFETCH_LEAD,
                faults=self.faults,
            )
        return MPressResult(
            job=self.job,
            plan=plan,
            planner_report=self.planner_report,
            simulation=simulation,
        )

    def _take_accepted(self, plan: MemorySavingPlan) -> Optional[SimulationResult]:
        """The accepted emulation's result if it proves the strict run.

        The emulation is handed over once, and released here either
        way, so a strict replay never runs with it still alive.
        """
        accepted, self._accepted = self._accepted, None
        if (
            accepted is not None
            and accepted.plan is plan
            and (self.faults is None or self.faults.is_empty)
            and accepted.result.ok
            and not accepted.result.memory.any_overflow()
        ):
            return accepted.result
        return None


def run_system(
    job: TrainingJob, system: str, faults: Optional[FaultSchedule] = None,
    reserve_bytes: int = 0,
) -> MPressResult:
    """Run one of the paper's five system configurations.

    ``system``: "none" (the original PipeDream/DAPPLE, no memory
    optimization), "recomputation", "gpu-cpu-swap", "d2d-only"
    (MPress with D2D swap only), or "mpress" (all three techniques).
    An optional fault schedule is injected into the training run (and
    informs planning for the planner-backed systems).
    ``reserve_bytes`` shrinks the planner's fit target (hybrid DP
    runs reserve gradient-bucket staging space); "none" has no
    planner, so the reserve is advisory there.
    """
    if system == "none":
        from repro.core.plan import empty_plan
        from repro.core.profiler import Profiler

        plan = empty_plan(job.n_stages)
        simulation = simulate(job, plan, strict=True, faults=faults)
        profile = Profiler(job).run()
        report = PlannerReport(
            profile=profile,
            device_map=plan.device_map,
            mapping=None,
            feasible=not any(profile.overflow(job.server.gpu_memory)),
        )
        return MPressResult(
            job=job, plan=plan, planner_report=report, simulation=simulation
        )
    return MPress(job, baseline_config(system), faults=faults,
                  reserve_bytes=reserve_bytes).run()

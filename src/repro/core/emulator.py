"""Emulator: run one instrumented iteration and report back (Fig. 5, step 5).

The emulator executes a tentative plan for a single training
iteration set in non-strict mode, measuring the achieved iteration
time and the amount of memory still overflowing — the feedback the
planner compares against previous configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.plan import Action, MemorySavingPlan
from repro.job import TrainingJob
from repro.sim.executor import SimulationResult
from repro.sim.fastpath import gc_paused, run_program
from repro.sim.ir import ExecOptions
from repro.sim.lowering import Lowering


@dataclass
class EmulationReport:
    """What one emulated iteration learned about a plan."""

    plan: MemorySavingPlan
    minibatch_time: float
    device_peaks: List[int]
    overflowed_devices: List[int]
    saved_by_action: Dict[Action, int]
    result: SimulationResult

    @property
    def fits(self) -> bool:
        return not self.overflowed_devices

    def slowdown_vs(self, baseline_time: float) -> float:
        """Relative extra time vs the uncompacted baseline."""
        if baseline_time <= 0:
            return 0.0
        return self.minibatch_time / baseline_time - 1.0


class Emulator:
    """Runs plans through the simulator in measurement mode.

    The plan-independent lowering skeleton (data-flow program, tensor
    classification) is built once at construction and shared across
    every :meth:`run` — the planner's tighten/refine loop only pays
    for per-plan instruction emission and interpretation.  Each
    candidate is replayed once by :func:`~repro.sim.fastpath.run_program`
    and nothing of it outlives :meth:`run` except the report: no
    program, tape or engine state is kept for the next candidate
    (docs/fastpath.md).  Lowering and replay run with the cyclic
    garbage collector paused (:func:`~repro.sim.fastpath.gc_paused`):
    the program's large, acyclic object graph would otherwise trigger
    repeated full collections that free nothing.
    """

    def __init__(self, job: TrainingJob, prefetch_lead: int = 2):
        self.job = job
        self.prefetch_lead = prefetch_lead
        self.options = ExecOptions(strict=False, prefetch_lead=prefetch_lead)
        self._lowering = Lowering(job, self.options)
        self.n_emulations = 0

    def run(self, plan: MemorySavingPlan) -> EmulationReport:
        self.n_emulations += 1
        with gc_paused():
            result = run_program(self._lowering.lower(plan))
        capacity = self.job.server.gpu_memory
        peaks = result.memory.peaks()
        overflowed = [dev for dev, peak in enumerate(peaks) if peak > capacity]
        return EmulationReport(
            plan=plan,
            minibatch_time=result.minibatch_time,
            device_peaks=peaks,
            overflowed_devices=overflowed,
            saved_by_action=plan.saved_by_action(),
            result=result,
        )

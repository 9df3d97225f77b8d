"""Thin facade: lower a (job, plan) and interpret the result.

This module used to be the simulator's 1000-line monolith; the logic
now lives in three layers (the split mirrors MPress Runtime's
planning/execution separation, Figure 5):

* :mod:`repro.sim.lowering` — walks the data-flow program and emits a
  typed :class:`~repro.sim.ir.InstructionProgram`;
* :mod:`repro.sim.interpreter` — replays the program on the
  discrete-event engine/stream/memory substrate;
* :mod:`repro.sim.events` — the bus observers (tracing, counters,
  auditing, fault reporting) subscribe to.

:func:`simulate` and :class:`PipelineExecutor` keep their historical
signatures so callers (CLI, runtime cache tasks, planner, tests) are
untouched; repeated-emulation callers should hold a
:class:`~repro.sim.lowering.Lowering` and re-lower per plan instead.
"""

from __future__ import annotations

from typing import Optional

from repro.core.plan import MemorySavingPlan
from repro.faults.spec import FaultSchedule
from repro.job import TrainingJob
from repro.sim.fastpath import gc_paused, run_program
from repro.sim.interpreter import SimulationResult
from repro.sim.ir import ExecOptions
from repro.sim.lowering import Lowering

__all__ = ["ExecOptions", "PipelineExecutor", "SimulationResult", "simulate"]


class PipelineExecutor:
    """Builds and runs the instruction program of one training iteration set."""

    def __init__(
        self,
        job: TrainingJob,
        plan: Optional[MemorySavingPlan] = None,
        options: ExecOptions = ExecOptions(),
    ):
        self.job = job
        self.options = options
        # Lower eagerly: invalid plans (bad device map, inconsistent
        # entries) are rejected at construction, as they always were.
        self.program = Lowering(job, options).lower(plan)
        self.plan = self.program.plan

    def run(self) -> SimulationResult:
        # Unobserved fault-free runs take the tape fast path; runs
        # with a fault schedule replay on the reference interpreter.
        # Both produce bit-identical results (docs/fastpath.md).
        return run_program(self.program)


def simulate(
    job: TrainingJob,
    plan: Optional[MemorySavingPlan] = None,
    strict: bool = True,
    prefetch_lead: int = 3,
    gpu_capacity_override: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
) -> SimulationResult:
    """Run one simulated training job and return its outcome.

    ``strict=True`` models real hardware — exceeding GPU memory
    aborts the job (result.ok is False).  ``strict=False`` records
    the overflow instead; this is the *emulator* mode the planner
    iterates with.

    ``faults`` injects a timed hardware fault schedule; the result
    then carries a :class:`~repro.faults.report.ResilienceReport`.
    """
    options = ExecOptions(
        strict=strict,
        prefetch_lead=prefetch_lead,
        gpu_capacity_override=gpu_capacity_override,
        faults=faults,
    )
    with gc_paused():
        return PipelineExecutor(job, plan, options).run()

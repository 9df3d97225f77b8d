"""End-to-end serving entry point: schedule, lower, simulate, measure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.server import Server
from repro.inference.costing import ServingCost
from repro.inference.lowering import build_serving_program
from repro.inference.metrics import ServingMetrics, compute_metrics
from repro.inference.scheduler import ServingTape
from repro.inference.workload import InferenceConfig
from repro.models.layers import ModelSpec
from repro.sim.fastpath import gc_paused, run_program
from repro.sim.interpreter import SimulationResult
from repro.sim.ir import ExecOptions


@dataclass(frozen=True)
class ServingOutcome:
    """Everything one serving simulation produced."""

    simulation: SimulationResult
    metrics: ServingMetrics
    tape: ServingTape
    cost: ServingCost


def run_serving(
    model: ModelSpec,
    server: Server,
    config: InferenceConfig,
    options: Optional[ExecOptions] = None,
) -> ServingOutcome:
    """Simulate one serving episode end to end.

    Dispatches through :func:`repro.sim.fastpath.run_program` exactly
    like training runs do (fast tape replay when eligible).  The whole
    chain runs with the cyclic garbage collector paused, as
    :meth:`repro.core.emulator.Emulator.run` does: the schedule, the
    program and the replay are large acyclic object graphs.
    """
    with gc_paused():
        program, tape, cost = build_serving_program(model, server, config,
                                                    options)
        simulation = run_program(program)
        del program
        metrics = compute_metrics(simulation, tape, config)
    return ServingOutcome(simulation=simulation, metrics=metrics,
                          tape=tape, cost=cost)

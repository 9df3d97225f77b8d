"""Lower a collective schedule onto the typed instruction IR.

Each :class:`TransferStep` becomes one ``P2PSend`` per NVLink lane
(chunks striped across ``topology.lane_channels``) or a staged PCIe
transfer for unlinked pairs — exactly the channels and bandwidth ramp
the pipeline lowering uses, so a simulated collective contends on the
same substrate as everything else.  A zero-duration ``Barrier`` joins
every round, gating the next one: the simulated makespan therefore
matches the analytic sum-of-round-bottlenecks model to float
precision (modulo ceil-division of striped chunks), which
``tests/test_collectives_lowering.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hardware.bandwidth import transfer_time
from repro.hardware.server import Server
from repro.collectives.schedule import CollectiveSchedule
from repro.sim.ir import (
    RECORD,
    Barrier,
    ExecOptions,
    InstructionProgram,
    P2PSend,
    ProgramBuilder,
)


@dataclass(frozen=True)
class _CollectiveJob:
    """Minimal job shim so the interpreter can run a bare collective."""

    server: Server
    n_minibatches: int = 1
    samples_per_minibatch: int = 0

    def minibatch_flops(self) -> float:
        return 0.0


class _CollectivePlan:
    """Plan shim: every stage 'lives' on the schedule's first member."""

    def __init__(self, device: int):
        self._device = device

    def device_of(self, stage: int) -> int:
        return self._device


def lower_collective(server: Server, schedule: CollectiveSchedule,
                     options: Optional[ExecOptions] = None) -> InstructionProgram:
    """Emit the schedule as a P2PSend/Barrier program."""
    if options is None:
        options = ExecOptions(record_trace=False)
    topology = server.topology
    builder = ProgramBuilder()
    root = schedule.group[0]
    gate: Tuple[int, ...] = ()
    for round_index, steps in enumerate(schedule.rounds):
        if not steps:
            continue
        sends: List[int] = []
        for step in steps:
            lanes = topology.lanes(step.src, step.dst)
            record = ([(RECORD, "coll", step.src, round_index, -1)]
                      if options.record_trace else None)
            if lanes > 0:
                link = topology.link_for(step.src, step.dst)
                channels = topology.lane_channels(step.src, step.dst)[:lanes]
                share = max(1, -(-step.size // lanes))
                for lane_index, channel in enumerate(channels):
                    sends.append(builder.emit(
                        P2PSend,
                        name=(f"coll.{schedule.op}.r{round_index}"
                              f".{step.src}->{step.dst}.l{lane_index}"),
                        stream=channel,
                        mode="pool",
                        duration=transfer_time(share, link, lanes=1),
                        device=step.src,
                        deps=gate,
                        done=record if lane_index == 0 else None,
                        src=step.src,
                        dst=step.dst,
                    ))
            else:
                # No direct link: stage through the host like the
                # pipeline's PCIe fallback (up then down).
                sends.append(builder.emit(
                    P2PSend,
                    name=(f"coll.{schedule.op}.r{round_index}"
                          f".{step.src}->{step.dst}.pcie"),
                    stream=("pcie_d2h", step.src),
                    mode="pool",
                    duration=2.0 * transfer_time(step.size, server.pcie, lanes=1),
                    device=step.src,
                    deps=gate,
                    done=record,
                    src=step.src,
                    dst=step.dst,
                ))
        join = builder.emit(
            Barrier,
            name=f"coll.{schedule.op}.r{round_index}.join",
            stream=("collective", root),
            mode="pool",
            duration=0.0,
            device=root,
            deps=tuple(sends),
        )
        gate = (join,)

    return builder.finish(_CollectiveJob(server=server), _CollectivePlan(root), options)


def simulate_collective(server: Server, schedule: CollectiveSchedule,
                        options: Optional[ExecOptions] = None):
    """Run the lowered collective; returns the ``SimulationResult``."""
    from repro.sim.interpreter import Interpreter

    program = lower_collective(server, schedule, options)
    return Interpreter(program).run()


def simulate_collective_time(server: Server, schedule: CollectiveSchedule,
                             options: Optional[ExecOptions] = None) -> float:
    """Simulated completion time (seconds) of one collective."""
    return simulate_collective(server, schedule, options).makespan

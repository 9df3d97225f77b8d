"""Lower a serving tape onto the discrete-event instruction IR.

The scheduler decided *what* happens each continuous-batching
iteration; this module decides *when*, by emitting the same typed
instructions training lowers to, through the same
:class:`~repro.sim.ir.ProgramBuilder`, so both interpreters — reference
and fast path — replay serving with real link timings, strict memory
books, traces, and fault hooks, unchanged.

Program shape per iteration:

* an arrival ``Barrier`` chain on one host stream gates iterations
  that admit requests (the wall-clock wait for the last admitted
  arrival);
* one ``Compute`` per stage on the stage device's FIFO compute
  stream, carrying the iteration's fresh KV ``Alloc``s at start and
  completion ``Drop``s + a ``"step"`` trace record at done;
* a ``P2PSend`` per stage boundary carries the batched activations;
* KV suspensions emit swap-outs *before* the iteration's computes and
  swap-ins before the resuming iteration's computes, wired exactly
  like the training paths: striped NVLink ``P2PSend``/``P2PRecv``
  fan-out for ``kv_swap="d2d"``, pinned-staging PCIe
  ``SwapOut``/``SwapIn`` for ``kv_swap="pcie"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.striping import build_stripe_plan
from repro.hardware.bandwidth import transfer_time
from repro.hardware.server import Server
from repro.inference.costing import ServingCost
from repro.inference.scheduler import ServingTape, SwapDecision, schedule_serving
from repro.inference.workload import InferenceConfig, generate_requests
from repro.models.layers import ModelSpec
from repro.pipeline.schedule import continuous_schedule
from repro.sim.ir import (
    ALLOC,
    DROP,
    HOST,
    HOST_BOOK,
    PIN,
    RECORD,
    UNPIN,
    Alloc,
    Barrier,
    Compute,
    ExecOptions,
    InstructionProgram,
    P2PRecv,
    P2PSend,
    ProgramBuilder,
    SwapIn,
    SwapOut,
)

KV_TAG = "kv"


@dataclass(frozen=True)
class ServingJobView:
    """The job-shaped facade the interpreters read metrics through.

    ``samples_per_minibatch`` is the episode's total output tokens and
    ``n_minibatches`` is one, so ``samples_per_second`` comes out as
    generated tokens per second and ``minibatch_time`` as the episode
    makespan.
    """

    server: Server
    n_minibatches: int
    samples_per_minibatch: int
    total_flops: float

    def minibatch_flops(self) -> float:
        return self.total_flops


@dataclass(frozen=True)
class ServingPlanView:
    """Identity stage→device mapping (stage ``s`` on GPU ``s``)."""

    n_stages: int

    def device_of(self, stage: int) -> int:
        return stage


class _ServingLowering:
    """One serving episode's emission pass."""

    def __init__(self, cost: ServingCost, tape: ServingTape,
                 config: InferenceConfig, options: ExecOptions):
        self.cost = cost
        self.tape = tape
        self.config = config
        self.options = options
        self.server = cost.server
        self.topology = cost.server.topology
        self.builder = ProgramBuilder()
        self.static_effects: List[Alloc] = []
        # Per stage device: last compute iid (swap-outs serialize after it).
        self._last_compute: Dict[int, int] = {}
        # (rid, stage) -> iid of the open suspension's out-join.
        self._out_join: Dict[Tuple[int, int], int] = {}
        # iteration -> per-stage swap gates its computes must wait on.
        self._gates: Dict[int, Dict[int, List[int]]] = {}
        self._prev_arrival: Optional[int] = None
        self._prev_gate_time = 0.0
        # (rid, stage) -> StripePlan of the open D2D suspension.
        self._stripe_plans: Dict[Tuple[int, int], object] = {}

    def _gate(self, iteration: int, device: int, iid: int) -> None:
        self._gates.setdefault(iteration, {}).setdefault(device, []).append(iid)

    # -- static state ------------------------------------------------------

    def _lower_static(self) -> None:
        for stage in range(self.cost.n_stages):
            self.static_effects.append(
                Alloc(
                    device=self.cost.stage_device(stage),
                    size=self.cost.weight_bytes(stage),
                    tag=f"weights.stage{stage}",
                )
            )

    # -- KV swap wiring ----------------------------------------------------

    def _swap_out(self, decision: SwapDecision) -> None:
        device = decision.device
        tag = f"kvswap.r{decision.rid}.s{decision.stage}"
        anchor = self._last_compute.get(device)
        deps = (anchor,) if anchor is not None else ()
        if self.config.kv_swap == "pcie":
            out = self.builder.emit(
                SwapOut,
                name=f"kvout.r{decision.rid}.s{decision.stage}",
                stream=("pcie_d2h", device),
                mode="pool",
                duration=transfer_time(decision.size, self.server.pcie, lanes=1),
                deps=deps,
                start=[(ALLOC, HOST_BOOK, decision.size, tag),
                       (PIN, decision.size)],
                done=[(DROP, device, decision.size, KV_TAG),
                      (UNPIN, decision.size),
                      (RECORD, "swap_out", device, decision.out_iteration, -1)],
                device=device,
                tag=tag,
                size=decision.size,
            )
            self._out_join[(decision.rid, decision.stage)] = out
            self._gate(decision.out_iteration, device, out)
            return
        budgets = {
            imp: self.server.gpu(imp).memory_bytes // 2
            for imp in self.cost.spare_devices
        }
        plan = build_stripe_plan(self.topology, device, budgets, decision.size)
        sends = []
        for k, block in enumerate(plan.blocks):
            sends.append(
                self.builder.emit(
                    P2PSend,
                    name=f"kvout.r{decision.rid}.s{decision.stage}.b{k}",
                    stream=block.lane,
                    mode="pool",
                    duration=transfer_time(block.size, self.topology.nvlink, lanes=1),
                    deps=deps,
                    start=[(ALLOC, block.importer, block.size, tag)],
                    device=device,
                    src=device,
                    dst=block.importer,
                )
            )
        out_join = self.builder.emit(
            Barrier,
            name=f"kvout.r{decision.rid}.s{decision.stage}",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(sends),
            done=[(DROP, device, decision.size, KV_TAG),
                  (RECORD, "swap_out", device, decision.out_iteration, -1)],
            device=device,
        )
        self._out_join[(decision.rid, decision.stage)] = out_join
        self._gate(decision.out_iteration, device, out_join)
        # Remember the stripe layout for the swap-in leg.
        self._stripe_plans[(decision.rid, decision.stage)] = plan

    def _swap_in(self, decision: SwapDecision) -> None:
        device = decision.device
        tag = f"kvswap.r{decision.rid}.s{decision.stage}"
        out_join = self._out_join.pop((decision.rid, decision.stage))
        iteration = decision.in_iteration
        if self.config.kv_swap == "pcie":
            back = self.builder.emit(
                SwapIn,
                name=f"kvin.r{decision.rid}.s{decision.stage}",
                stream=("pcie_h2d", device),
                mode="pool",
                duration=transfer_time(decision.size, self.server.pcie, lanes=1),
                deps=(out_join,),
                start=[(ALLOC, device, decision.size, KV_TAG),
                       (PIN, decision.size)],
                done=[(DROP, HOST_BOOK, decision.size, tag),
                      (UNPIN, decision.size),
                      (RECORD, "swap_in", device, iteration, -1)],
                device=device,
                tag=tag,
                size=decision.size,
            )
            self._gate(iteration, device, back)
            return
        plan = self._stripe_plans.pop((decision.rid, decision.stage))
        in_begin = self.builder.emit(
            Barrier,
            name=f"kvin.r{decision.rid}.s{decision.stage}.begin",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=(out_join,),
            done=[(ALLOC, device, decision.size, KV_TAG)],
            device=device,
        )
        recvs = []
        for k, block in enumerate(plan.blocks):
            recvs.append(
                self.builder.emit(
                    P2PRecv,
                    name=f"kvin.r{decision.rid}.s{decision.stage}.b{k}",
                    stream=block.return_lane,
                    mode="pool",
                    duration=transfer_time(block.size, self.topology.nvlink, lanes=1),
                    deps=(in_begin,),
                    done=[(DROP, block.importer, block.size, tag)],
                    device=device,
                    src=block.importer,
                    dst=device,
                )
            )
        in_join = self.builder.emit(
            Barrier,
            name=f"kvin.r{decision.rid}.s{decision.stage}",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(recvs),
            done=[(RECORD, "swap_in", device, iteration, -1)],
            device=device,
        )
        self._gate(iteration, device, in_join)

    # -- per-iteration compute ---------------------------------------------

    def _arrival_barrier(self, iteration, gate_time: float) -> int:
        delta = max(0.0, gate_time - self._prev_gate_time)
        self._prev_gate_time = max(self._prev_gate_time, gate_time)
        deps = (self._prev_arrival,) if self._prev_arrival is not None else ()
        iid = self.builder.emit(
            Barrier,
            name=f"arrive.i{iteration}",
            stream=("arrivals",),
            mode="fifo",
            duration=delta,
            deps=deps,
            device=HOST,
        )
        self._prev_arrival = iid
        return iid

    def _lower_iteration(self, record) -> None:
        iteration = record.index
        arrival = None
        if record.gate is not None:
            arrival = self._arrival_barrier(iteration, record.gate)
        prev_stage: Optional[int] = None
        for stage in range(self.cost.n_stages):
            device = self.cost.stage_device(stage)
            deps: List[int] = []
            if stage == 0 and arrival is not None:
                deps.append(arrival)
            if prev_stage is not None:
                deps.append(prev_stage)
            deps.extend(self._gates.get(iteration, {}).get(device, ()))
            start = None
            if record.kv_alloc[stage]:
                start = [(ALLOC, device, record.kv_alloc[stage], KV_TAG)]
            done: List[tuple] = []
            if record.kv_free[stage]:
                done.append((DROP, device, record.kv_free[stage], KV_TAG))
            done.append((RECORD, "step", device, iteration, stage))
            compute = self.builder.emit(
                Compute,
                name=f"serve.i{iteration}.s{stage}",
                stream=("compute", device),
                mode="fifo",
                duration=record.stage_durations[stage],
                deps=tuple(deps),
                start=start,
                done=done,
                device=device,
                stage=stage,
                microbatch=iteration,
                layer=stage,
                op="fwd",
            )
            self._last_compute[device] = compute
            prev_stage = compute
            if stage + 1 < self.cost.n_stages and record.boundary_tokens:
                prev_stage = self._boundary_send(iteration, stage, compute,
                                                record.boundary_tokens)

    def _boundary_send(self, iteration: int, stage: int, compute: int,
                       tokens: int) -> int:
        src = self.cost.stage_device(stage)
        dst = self.cost.stage_device(stage + 1)
        size = self.cost.boundary_bytes(tokens)
        if self.topology.lanes(src, dst) > 0:
            lane = self.topology.lane_channels(src, dst)[0]
            link = self.topology.link_for(src, dst)
            stream: Hashable = lane
        else:
            # Non-adjacent stages fall back to staged PCIe.
            link = self.server.pcie
            stream = ("pcie_p2p", src, dst)
        return self.builder.emit(
            P2PSend,
            name=f"bound.i{iteration}.s{stage}",
            stream=stream,
            mode="pool",
            duration=transfer_time(size, link, lanes=1),
            deps=(compute,),
            device=src,
            src=src,
            dst=dst,
        )

    # -- assembly ----------------------------------------------------------

    def build(self) -> InstructionProgram:
        self._lower_static()
        swaps_out: Dict[int, List[SwapDecision]] = {}
        swaps_in: Dict[int, List[SwapDecision]] = {}
        for decision in self.tape.swaps:
            swaps_out.setdefault(decision.out_iteration, []).append(decision)
            if decision.in_iteration is not None:
                swaps_in.setdefault(decision.in_iteration, []).append(decision)
        for record in self.tape.iterations:
            for decision in swaps_out.get(record.index, ()):
                self._swap_out(decision)
            for decision in swaps_in.get(record.index, ()):
                self._swap_in(decision)
            self._lower_iteration(record)
        job = ServingJobView(
            server=self.server,
            n_minibatches=1,
            samples_per_minibatch=self.tape.total_output_tokens,
            total_flops=self.tape.total_flops,
        )
        plan = ServingPlanView(n_stages=self.cost.n_stages)
        return self.builder.finish(job, plan, self.options, self.static_effects)


def build_serving_program(
    model: ModelSpec,
    server: Server,
    config: InferenceConfig,
    options: Optional[ExecOptions] = None,
) -> Tuple[InstructionProgram, ServingTape, ServingCost]:
    """Schedule and lower one serving episode; returns all three layers."""
    if options is None:
        options = ExecOptions()
    from repro.errors import ConfigurationError

    cost = ServingCost(model, server, config)
    requests = generate_requests(config)
    tape = schedule_serving(requests, cost, config)
    if tape.swaps and config.kv_swap == "d2d" and not cost.spare_devices:
        raise ConfigurationError(
            "kv_swap='d2d' needs spare-memory GPUs but every device hosts a "
            "stage; lower pp or use kv_swap='pcie'")
    # The schedule family is validated even though the per-iteration
    # content lives on the tape: it pins the forward-only invariant.
    continuous_schedule(cost.n_stages, max(1, tape.n_iterations))
    lowering = _ServingLowering(cost, tape, config, options)
    return lowering.build(), tape, cost

"""Lower (job, plan, options) into a typed instruction program.

This is the planning half of the simulated MPress Runtime (Figure 5):
walk the instrumented data-flow program and emit, per device stream,
the instructions and memory effects of one training iteration set.
Emission writes the program's tape directly through a
:class:`~repro.sim.ir.ProgramBuilder`, with effects as opcode tuples;
the typed instructions are rebuilt from the tape only when read.  The
interpreters (:mod:`repro.sim.fastpath`, :mod:`repro.sim.interpreter`)
replay the result; nothing here touches the event loop.

A :class:`Lowering` is bound to one ``(job, options)`` pair and caches
everything *plan-independent* — the data-flow program, the tensor
classification, node keys, instruction names, cross-node edges and
per-``(stage, device)`` layer durations — so the planner's
emulate-candidate-plans loop pays for that walk exactly once and only
re-runs the cheap per-plan instruction emission
(:meth:`Lowering.lower`).  The module-level
:func:`skeleton_build_count` counter makes that reuse testable.

Ordering is load-bearing throughout (see :mod:`repro.sim.ir`): the
emission order of instructions, dependency edges, effects, and stream
first-uses below matches the legacy monolithic executor exactly, which
is what keeps the golden chrome-trace digests byte-identical.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.plan import Action, MemorySavingPlan, empty_plan, validate_plan
from repro.errors import SimulationError
from repro.graph.dataflow import ComputeNode, NodeKey, Program, build_program
from repro.graph.tensor import TensorClass, TensorKind, tensor_classes_for
from repro.hardware.bandwidth import transfer_time
from repro.job import TrainingJob
from repro.pipeline.schedule import OpKind
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
    NvmeRead,
    NvmeWrite,
    OptimStep,
    P2PRecv,
    P2PSend,
    ProgramBuilder,
    Recompute,
    SwapIn,
    SwapOut,
)

# How many plan-independent skeletons were built process-wide; tests
# assert the planner loop bumps this once per (job, options), however
# many candidate plans it evaluates.
_SKELETON_BUILDS = 0


def skeleton_build_count() -> int:
    """Process-wide count of plan-independent lowering skeletons built."""
    return _SKELETON_BUILDS


class Lowering:
    """Caches the plan-independent skeleton; lowers plans on demand."""

    def __init__(self, job: TrainingJob, options: ExecOptions = ExecOptions()):
        global _SKELETON_BUILDS
        _SKELETON_BUILDS += 1
        self.job = job
        self.options = options
        self.program: Program = build_program(job.stage_plan, job.schedule)
        self.classes = tensor_classes_for(
            job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
        )
        # Activation classes per stage, in layer order.
        self.stage_acts: Dict[int, List[TensorClass]] = {}
        for cls in self.classes:
            if cls.kind is TensorKind.ACTIVATION:
                self.stage_acts.setdefault(cls.stage, []).append(cls)
        for acts in self.stage_acts.values():
            acts.sort(key=lambda c: c.layer)
        self.by_kind: Dict[Tuple[str, int], TensorClass] = {
            (cls.kind.value, cls.stage): cls
            for cls in self.classes
            if cls.kind in (TensorKind.OPTIMIZER_STATE, TensorKind.STASHED_PARAMS)
        }
        # Per-node facts every plan reuses: (node, key, name, chain) per
        # stage in issue order, where a compute node's chain lists its
        # (layer index, instruction name) pairs in execution order and
        # an optimizer node's chain is None; then the same-stage edges
        # and the cross-stage transfers, by node key.
        self.node_facts: List[List[tuple]] = []
        for stage_index, stage_nodes in enumerate(self.program.per_stage):
            layers = job.stage_plan.stage(stage_index).layers
            facts = []
            for node in stage_nodes:
                key = node.key
                chain = None
                if node.kind is not OpKind.OPTIMIZER:
                    ordered = layers if node.kind is OpKind.FORWARD else layers[::-1]
                    chain = [
                        (layer.index,
                         f"{key[0]}.s{node.stage}.m{node.microbatch}.l{layer.index}")
                        for layer in ordered
                    ]
                facts.append((node, key, node.name, chain))
            self.node_facts.append(facts)
        self.local_edges: List[Tuple[NodeKey, NodeKey]] = []
        self.transfers: List[tuple] = []
        bpe = job.bytes_per_element
        for node in self.program.nodes():
            for dep in node.deps:
                if dep.stage == node.stage:
                    self.local_edges.append((node.key, dep.key))
                    continue
                size = job.stage_plan.stage(min(dep.stage, node.stage)).boundary_bytes(
                    job.microbatch_size, bpe
                )
                self.transfers.append((
                    node.key, dep.key, f"comm.{dep.name}->{node.name}", size,
                    dep.stage, node.stage, node.microbatch,
                ))
        self._times: Dict[Tuple[int, int], tuple] = {}

    def stage_times(self, stage: int, device: int) -> tuple:
        """``(forward, backward, recompute, optimizer)`` durations of
        ``stage`` on ``device``; the per-layer lists follow the forward
        and backward chain orders."""
        times = self._times.get((stage, device))
        if times is None:
            job = self.job
            throughput = job.server.gpu(device).peak_flops(job.precision) * job.mfu
            layers = job.stage_plan.stage(stage).layers
            flops = [layer.forward_flops(job.microbatch_size) for layer in layers]
            times = self._times[(stage, device)] = (
                [f / throughput for f in flops],
                [(2.0 * f) / throughput for f in flops[::-1]],
                [job.layer_forward_time(layer, device) for layer in layers[::-1]],
                job.optimizer_time(stage, device),
            )
        return times

    def lower(self, plan: Optional[MemorySavingPlan] = None) -> InstructionProgram:
        """Emit the instruction program of one candidate plan."""
        plan = plan if plan is not None else empty_plan(self.job.n_stages)
        if len(plan.device_map) != self.job.n_stages:
            raise SimulationError("plan device map does not cover all stages")
        validate_plan(plan, self.classes)
        return _PlanLowering(self, plan).build()


class _PlanLowering:
    """One plan's emission pass over the cached skeleton."""

    def __init__(self, skeleton: Lowering, plan: MemorySavingPlan):
        self.skel = skeleton
        self.job = skeleton.job
        self.options = skeleton.options
        self.plan = plan
        self.capacities = [
            self.options.gpu_capacity_override or gpu.memory_bytes
            for gpu in self.job.server.gpus
        ]
        self.builder = ProgramBuilder()
        self.static_effects: List[Alloc] = []
        # Static GPU residency per device, for the backpressure window
        # (the legacy executor read the live memory book here; the
        # books only hold static state at build time).
        self.static_in_use: Dict[int, int] = {}
        # (kind, stage, index) -> first/last per-layer instruction.
        self._node_first: Dict[tuple, int] = {}
        self._node_last: Dict[tuple, int] = {}
        # (stage, microbatch, layer) -> per-layer compute instruction.
        self._fwd_layer: Dict[tuple, int] = {}
        self._bwd_layer: Dict[tuple, int] = {}
        # Per-stage compute instructions in issue order (anchors).
        self._stage_order: Dict[int, List[int]] = {}
        # id(stripe) -> per-block NVLink transfer times; a plan entry's
        # stripe is shared by every microbatch of its tensor class.
        self._block_times: Dict[int, List[float]] = {}

    def build(self) -> InstructionProgram:
        self._lower_static()
        self._lower_compute()
        self._lower_comm()
        self._lower_activation_ops()
        self._lower_optimizer_ops()
        return self.builder.finish(self.job, self.plan, self.options, self.static_effects)

    # -- static state ------------------------------------------------------

    def _device(self, stage: int) -> int:
        return self.plan.device_of(stage)

    def _static_alloc(self, device, size: int, tag: str) -> None:
        self.static_effects.append(Alloc(device=device, size=size, tag=tag))
        if device != HOST:
            self.static_in_use[device] = self.static_in_use.get(device, 0) + size

    def _lower_static(self) -> None:
        """Model state resident from t=0, per the plan."""
        for cls in self.skel.classes:
            device = self._device(cls.stage)
            action = self.plan.action_for(cls)
            if cls.kind is TensorKind.WORKING_STATE:
                self._static_alloc(device, cls.peak_bytes, str(cls.key))
            elif cls.kind is TensorKind.OPTIMIZER_STATE:
                if action is Action.NONE:
                    self._static_alloc(device, cls.peak_bytes, str(cls.key))
                elif action is Action.CPU_SWAP:
                    # NVMe-tier blobs live on storage, not in host RAM.
                    if self.plan.entry_for(cls).tier == "host":
                        self._static_alloc(HOST, cls.peak_bytes, str(cls.key))
                elif action is Action.D2D_SWAP:
                    stripe = self.plan.entry_for(cls).stripe
                    for importer in stripe.importers:
                        self._static_alloc(
                            importer, stripe.bytes_to(importer), str(cls.key)
                        )
            # Activations and stashed versions are allocated dynamically.

    # -- compute -----------------------------------------------------------

    def _lower_compute(self) -> None:
        """Per-layer forward/backward chains on per-device FIFO streams.

        Recomputation instructions are queued immediately before the
        backward of their layer on the same stream, so they contend
        for GPU compute exactly as real recomputation does (the
        paper's up-to-33% recompute delay, Section II-D).
        """
        skel = self.skel
        for stage_index, facts in enumerate(skel.node_facts):
            device = self._device(stage_index)
            stream = ("compute", device)
            self.builder.stream(stream, "fifo")
            order: List[int] = []
            self._stage_order[stage_index] = order
            forward, backward, recompute, opt_time = skel.stage_times(
                stage_index, device
            )
            recomputed = {
                cls.layer
                for cls in skel.stage_acts.get(stage_index, [])
                if self.plan.action_for(cls) is Action.RECOMPUTE
            }
            for node, key, name, chain in facts:
                if chain is None:
                    iid = self.builder.emit(
                        OptimStep, name, stream, "fifo", opt_time, device,
                        done=[(RECORD, "opt", device, node.minibatch, -1)],
                        stage=node.stage,
                        minibatch=node.minibatch,
                    )
                    self._node_first[key] = iid
                    self._node_last[key] = iid
                    order.append(iid)
                    continue
                durations = forward if node.kind is OpKind.FORWARD else backward
                first, last = self._lower_layer_chain(
                    node, key[0], chain, durations, recompute, recomputed,
                    device, stream, order,
                )
                self._node_first[key] = first
                self._node_last[key] = last
        # Cross-node dependencies (same-stage fwd->bwd data edges).
        for key, dep_key in skel.local_edges:
            self.builder.edge(self._node_first[key], self._node_last[dep_key])

    def _lower_layer_chain(
        self,
        node: ComputeNode,
        op: str,
        chain: List[tuple],
        durations: List[float],
        recompute: List[float],
        recomputed: set,
        device: int,
        stream: Hashable,
        order: List[int],
    ) -> Tuple[int, int]:
        emit = self.builder.emit
        stage = node.stage
        mb = node.microbatch
        forward = node.kind is OpKind.FORWARD
        by_layer = self._fwd_layer if forward else self._bwd_layer
        first: Optional[int] = None
        last: Optional[int] = None
        for position, (index, name) in enumerate(chain):
            if not forward and index in recomputed:
                iid = emit(
                    Recompute, f"recompute.s{stage}.m{mb}.l{index}", stream, "fifo",
                    recompute[position], device,
                    done=[(RECORD, "recompute", device, mb, index)],
                    stage=stage, microbatch=mb, layer=index,
                )
                order.append(iid)
                self._fwd_layer[("recompute", stage, mb, index)] = iid
            iid = emit(
                Compute, name, stream, "fifo", durations[position], device,
                done=[(RECORD, op, device, mb, index)],
                stage=stage, microbatch=mb, layer=index, op=op,
            )
            order.append(iid)
            by_layer[(stage, mb, index)] = iid
            if first is None:
                first = iid
            last = iid
        return first, last

    # -- communication -----------------------------------------------------

    def _lower_link(
        self,
        name: str,
        size: int,
        src_dev: int,
        dst_dev: int,
        deps: Tuple[int, ...],
        kind: str,
        microbatch: int,
    ) -> int:
        """A point-to-point GPU transfer over one NVLink lane.

        Falls back to a staged PCIe route when the devices share no
        direct lane (possible on DGX-1 with a poor device mapping).
        """
        topology = self.job.server.topology
        done = [(RECORD, kind, src_dev, microbatch, -1)]
        if topology.lanes(src_dev, dst_dev) > 0:
            stream = topology.lane_channels(src_dev, dst_dev)[0]
            duration = transfer_time(size, topology.nvlink, lanes=1)
        else:
            # Staged copy through host memory: D2H then H2D, serialized.
            stream = ("pcie_d2h", src_dev)
            duration = 2.0 * transfer_time(size, self.job.server.pcie, lanes=1)
        return self.builder.emit(
            P2PSend, name, stream, "pool", duration, src_dev, deps, done=done,
            src=src_dev, dst=dst_dev,
        )

    def _lower_comm(self) -> None:
        """Activation/gradient transfers between adjacent stages."""
        for key, dep_key, name, size, dep_stage, stage, mb in self.skel.transfers:
            comm = self._lower_link(
                name=name,
                size=size,
                src_dev=self._device(dep_stage),
                dst_dev=self._device(stage),
                deps=(self._node_last[dep_key],),
                kind="comm",
                microbatch=mb,
            )
            self.builder.edge(self._node_first[key], comm)

    # -- activation memory ops ---------------------------------------------

    def _lower_activation_ops(self) -> None:
        """Per (stage, layer, microbatch) tensor lifecycles.

        Swapped tensors form one eviction sequence per stage in
        generation order (microbatch-major, layer-minor); a new
        swapped tensor may only materialize once the tensor ``W``
        generations earlier has been evicted.  ``W`` is derived from
        the memory left over after resident state — this is the
        allocator's memory-pressure throttling, and it is what slows
        a PCIe-bound GPU-CPU-swap job down to the link rate (the
        paper's 67% swap-only throughput loss, Section II-D).
        """
        for stage in range(self.job.n_stages):
            device = self._device(stage)
            window = self._backpressure_window(stage, device)
            history: List[int] = []
            for node in self.skel.program.per_stage[stage]:
                if node.kind is not OpKind.FORWARD:
                    continue
                mb = node.microbatch
                mb_start = len(history)
                for cls in self.skel.stage_acts.get(stage, []):
                    fwd = self._fwd_layer[(stage, mb, cls.layer)]
                    bwd = self._bwd_layer[(stage, mb, cls.layer)]
                    if window is not None and len(history) >= window:
                        self.builder.edge(fwd, history[len(history) - window])
                    join = self._wire_activation(cls, device, mb, fwd, bwd)
                    if join is not None:
                        history.append(join)
                stash_join = self._wire_stash(stage, mb, device, window, history, mb_start)
                if stash_join is not None:
                    history.append(stash_join)

    def _backpressure_window(self, stage: int, device: int) -> Optional[int]:
        """Un-evicted swapped layer-tensors the allocator tolerates.

        The window is the number of concurrently-resident swapped
        tensors fitting in half the memory left after static state,
        resident activations, and recompute checkpoints (the other
        half covers swap-in prefetches and transients).  ``None``
        means no swapped tensors, hence no throttling.
        """
        swapped_sizes: List[int] = []
        # Static state is exactly what the legacy executor saw in the
        # live memory book at build time.
        resident = self.static_in_use.get(device, 0)
        for cls in self.skel.stage_acts.get(stage, []):
            action = self.plan.action_for(cls)
            if action in (Action.CPU_SWAP, Action.D2D_SWAP):
                swapped_sizes.append(cls.size)
            elif action is Action.NONE:
                resident += cls.size * cls.instances
            elif action is Action.RECOMPUTE:
                boundary = self.job.model.layers[cls.layer].boundary_bytes(
                    self.job.microbatch_size, self.job.bytes_per_element
                )
                resident += boundary * cls.instances + cls.size
        stash = self.skel.by_kind.get((TensorKind.STASHED_PARAMS.value, stage))
        if stash is not None and stash.instances > 0:
            if self.plan.action_for(stash) in (Action.CPU_SWAP, Action.D2D_SWAP):
                swapped_sizes.append(stash.size)
            else:
                resident += stash.size * stash.instances
        if not swapped_sizes:
            return None
        average = sum(swapped_sizes) / len(swapped_sizes)
        budget = max(0, self.capacities[device] - resident)
        window = int(0.5 * budget / average)
        ceiling = self.options.swap_backpressure * max(1, len(swapped_sizes))
        return max(1, min(ceiling, window))

    def _wire_activation(
        self, cls: TensorClass, device: int, mb: int, fwd: int, bwd: int
    ) -> Optional[int]:
        """Wire one layer-tensor's lifecycle; returns its swap-out join."""
        action = self.plan.action_for(cls)
        tag = f"act.s{cls.stage}.l{cls.layer}.m{mb}"
        size = cls.size
        if action is Action.NONE:
            self.builder.add_start(fwd, (ALLOC, device, size, tag))
            self.builder.add_done(bwd, (DROP, device, size, tag))
            return None
        if action is Action.RECOMPUTE:
            self._wire_recompute(cls, device, mb, fwd, bwd, tag)
            return None
        self.builder.add_start(fwd, (ALLOC, device, size, tag))
        self.builder.add_done(bwd, (DROP, device, size, tag))
        anchor = self._anchor_before(cls.stage, bwd)
        entry = self.plan.entry_for(cls)
        if action is Action.CPU_SWAP:
            return self._wire_cpu_swap(
                tag, size, device, mb, fwd, bwd, anchor, tier=entry.tier
            )
        # Partial D2D: only the striped portion leaves the device.
        stripe = entry.stripe
        return self._wire_d2d_swap(
            tag, stripe.tensor_bytes, stripe, device, mb, fwd, bwd, anchor
        )

    def _anchor_before(self, stage: int, consumer: int) -> Optional[int]:
        """Compute instruction ``prefetch_lead`` positions before ``consumer``."""
        order = self._stage_order[stage]
        try:
            position = order.index(consumer)
        except ValueError:
            return None
        anchor_pos = position - self.options.prefetch_lead
        if anchor_pos < 0:
            return None
        return order[anchor_pos]

    def _wire_recompute(
        self, cls: TensorClass, device: int, mb: int, fwd: int, bwd: int, tag: str
    ) -> None:
        """Per-layer checkpointing: drop internals, keep the boundary.

        The layer's internal activations exist during its forward
        pass, are dropped afterwards (only the boundary checkpoint
        stays), and are re-materialized by the recompute instruction
        queued just before the layer's backward pass.
        """
        boundary = self.job.model.layers[cls.layer].boundary_bytes(
            self.job.microbatch_size, self.job.bytes_per_element
        )
        internals = max(0, cls.size - boundary)
        self.builder.add_start(fwd, (ALLOC, device, cls.size, tag))
        self.builder.add_done(fwd, (DROP, device, internals, tag))
        recompute = self._fwd_layer[("recompute", cls.stage, mb, cls.layer)]
        self.builder.add_start(recompute, (ALLOC, device, internals, tag))
        self.builder.add_done(bwd, (DROP, device, cls.size, tag))

    def _wire_cpu_swap(
        self,
        tag: str,
        size: int,
        device: int,
        mb: int,
        out_after: int,
        in_before: int,
        anchor: Optional[int],
        tier: str = "host",
    ) -> int:
        """GPU<->CPU swap over PCIe, optionally spilling to NVMe.

        With ``tier == "nvme"`` the tensor only stages through pinned
        host memory and continues to NVMe (ZeRO-Infinity style), so
        host residency stays bounded at the cost of the extra,
        slower NVMe legs.
        """
        duration = transfer_time(size, self.job.server.pcie, lanes=1)
        out = self.builder.emit(
            SwapOut,
            name=f"swapout.{tag}",
            stream=("pcie_d2h", device),
            mode="pool",
            duration=duration,
            deps=(out_after,),
            start=[(ALLOC, HOST_BOOK, size, tag), (PIN, size)],
            done=[
                (DROP, device, size, tag),
                (UNPIN, size),
                (RECORD, "swap_out", device, mb, -1),
            ],
            device=device,
            tag=tag,
            size=size,
            tier=tier,
        )
        eviction_gate = out
        if tier == "nvme":
            nvme = self.job.server.nvme
            spill = self.builder.emit(
                NvmeWrite,
                name=f"nvmewrite.{tag}",
                stream=("nvme", "write"),
                mode="pool",
                duration=size / nvme.write_bandwidth,
                deps=(out,),
                done=[(DROP, HOST_BOOK, size, tag)],
                device=device,
                tag=tag,
                size=size,
            )
            # Host staging is only reclaimed once NVMe absorbed the
            # tensor; gate the eviction sequence on that, so a slow
            # NVMe throttles producers instead of flooding the host.
            eviction_gate = spill
            fetch_deps = (spill,) if anchor is None else (spill, anchor)
            fetch = self.builder.emit(
                NvmeRead,
                name=f"nvmeread.{tag}",
                stream=("nvme", "read"),
                mode="pool",
                duration=size / nvme.read_bandwidth,
                deps=fetch_deps,
                start=[(ALLOC, HOST_BOOK, size, tag)],
                device=device,
                tag=tag,
                size=size,
            )
            in_deps = (fetch,)
        else:
            in_deps = (out,) if anchor is None else (out, anchor)

        swap_in = self.builder.emit(
            SwapIn,
            name=f"swapin.{tag}",
            stream=("pcie_h2d", device),
            mode="pool",
            duration=duration,
            deps=in_deps,
            start=[(ALLOC, device, size, tag), (PIN, size)],
            done=[
                (DROP, HOST_BOOK, size, tag),
                (UNPIN, size),
                (RECORD, "swap_in", device, mb, -1),
            ],
            device=device,
            tag=tag,
            size=size,
            tier=tier,
        )
        self.builder.edge(in_before, swap_in)
        return eviction_gate

    def _wire_d2d_swap(
        self,
        tag: str,
        size: int,
        stripe,
        device: int,
        mb: int,
        out_after: int,
        in_before: int,
        anchor: Optional[int],
    ) -> int:
        """Striped device-to-device swap over NVLink lanes (Sec. III-C)."""
        times = self._block_times.get(id(stripe))
        if times is None:
            nvlink = self.job.server.topology.nvlink
            times = self._block_times[id(stripe)] = [
                transfer_time(block.size, nvlink, lanes=1) for block in stripe.blocks
            ]
        out_blocks: List[int] = []
        for index, block in enumerate(stripe.blocks):
            out_blocks.append(
                self.builder.emit(
                    P2PSend,
                    name=f"d2dout.{tag}.b{index}",
                    stream=block.lane,
                    mode="pool",
                    duration=times[index],
                    deps=(out_after,),
                    start=[(ALLOC, block.importer, block.size, tag)],
                    device=device,
                    src=device,
                    dst=block.importer,
                )
            )
        out_join = self.builder.emit(
            Barrier,
            name=f"d2dout.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(out_blocks),
            done=[(DROP, device, size, tag), (RECORD, "swap_out", device, mb, -1)],
            device=device,
        )

        in_begin_deps = (out_join,) if anchor is None else (out_join, anchor)
        in_begin = self.builder.emit(
            Barrier,
            name=f"d2din.{tag}.begin",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=in_begin_deps,
            done=[(ALLOC, device, size, tag)],
            device=device,
        )
        in_blocks: List[int] = []
        for index, block in enumerate(stripe.blocks):
            in_blocks.append(
                self.builder.emit(
                    P2PRecv,
                    name=f"d2din.{tag}.b{index}",
                    stream=block.return_lane,
                    mode="pool",
                    duration=times[index],
                    deps=(in_begin,),
                    done=[(DROP, block.importer, block.size, tag)],
                    device=device,
                    src=block.importer,
                    dst=device,
                )
            )
        in_join = self.builder.emit(
            Barrier,
            name=f"d2din.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(in_blocks),
            done=[(RECORD, "swap_in", device, mb, -1)],
            device=device,
        )
        self.builder.edge(in_before, in_join)
        return out_join

    # -- stashed weight versions (PipeDream) -------------------------------

    def _wire_stash(
        self,
        stage: int,
        mb: int,
        device: int,
        window: Optional[int],
        history: List[int],
        mb_start: int,
    ) -> Optional[int]:
        """One stashed weight version's lifecycle; returns its out join.

        The version materializes when the microbatch's forward
        finishes and retires after its backward.  Swapped versions
        participate in the stage's eviction sequence, so a saturated
        link throttles weight stashing like any other generation.
        """
        cls = self.skel.by_kind.get((TensorKind.STASHED_PARAMS.value, stage))
        if cls is None or cls.instances == 0:
            return None
        action = self.plan.action_for(cls)
        fwd_last = self._node_last[(OpKind.FORWARD.value, stage, mb)]
        bwd_key = (OpKind.BACKWARD.value, stage, mb)
        bwd_first = self._node_first[bwd_key]
        bwd_last = self._node_last[bwd_key]
        tag = f"stash.s{stage}.m{mb}"
        self.builder.add_done(fwd_last, (ALLOC, device, cls.size, tag))
        self.builder.add_done(bwd_last, (DROP, device, cls.size, tag))
        if action is Action.NONE:
            return None
        if window is not None and len(history) >= window:
            # The stash version materializes at the end of this
            # microbatch's forward, whose layer instructions already
            # gate on this microbatch's own joins — gating on one of
            # those here would be a self-cycle.  Use strictly older
            # generations only.
            index = min(len(history) - window, mb_start - 1)
            if index >= 0:
                self.builder.edge(fwd_last, history[index])
        anchor = self._anchor_before(stage, bwd_first)
        entry = self.plan.entry_for(cls)
        if action is Action.CPU_SWAP:
            return self._wire_cpu_swap(
                tag, cls.size, device, mb, fwd_last, bwd_first, anchor,
                tier=entry.tier,
            )
        stripe = entry.stripe
        return self._wire_d2d_swap(
            tag, cls.size, stripe, device, mb, fwd_last, bwd_first, anchor
        )

    # -- optimizer state swapping ------------------------------------------

    def _lower_optimizer_ops(self) -> None:
        for stage in range(self.job.n_stages):
            cls = self.skel.by_kind.get((TensorKind.OPTIMIZER_STATE.value, stage))
            if cls is None:
                continue
            action = self.plan.action_for(cls)
            if action is Action.NONE:
                continue
            device = self._device(stage)
            first_bwd_of = self.skel.program.first_backward_by_minibatch(stage)
            previous_outs: Optional[List[int]] = None
            for node in self.skel.program.per_stage[stage]:
                if node.kind is not OpKind.OPTIMIZER:
                    continue
                opt_iid = self._node_first[node.key]
                anchor_node = first_bwd_of.get(node.minibatch)
                anchor = (
                    self._node_first[anchor_node.key] if anchor_node is not None else None
                )
                tag = f"opt.s{stage}.k{node.minibatch}"
                previous_outs = self._wire_opt_swap(
                    cls, action, tag, device, node.minibatch, opt_iid, anchor,
                    previous_outs,
                )

    def _opt_chunks(self, size: int, capacity: int) -> List[int]:
        """Chunk sizes for streaming optimizer state.

        Chunks never exceed 1/16 of device capacity, so a couple of
        in-flight chunks stay a small fraction of the device.
        """
        chunk = max(1, min(self.options.opt_swap_chunk, capacity // 16))
        sizes = []
        remaining = size
        while remaining > 0:
            take = min(chunk, remaining)
            sizes.append(take)
            remaining -= take
        return sizes

    def _wire_opt_swap(
        self,
        cls,
        action: Action,
        tag: str,
        device: int,
        minibatch: int,
        opt_iid: int,
        anchor: Optional[int],
        previous_outs: Optional[List[int]],
    ) -> List[int]:
        """Chunked optimizer-state swap around one optimizer step.

        The blob streams in chunk by chunk; each chunk is updated on
        a dedicated per-device optimizer stream and streamed back out
        immediately, so GPU residency stays at a couple of chunks —
        a whole billion-scale optimizer blob next to the working set
        would never fit.  The original optimizer instruction becomes
        a zero-cost join gating the next minibatch.
        """
        chunks = self._opt_chunks(cls.size, self.capacities[device])
        total = float(cls.size)
        step_time = self.builder.tape.durations[opt_iid]
        self.builder.set_duration(opt_iid, 0.0)
        update_stream = ("optstep", device)
        self.builder.stream(update_stream, "fifo")
        outs: List[int] = []
        last_update: Optional[int] = None
        for index, chunk in enumerate(chunks):
            chunk_tag = f"{tag}.c{index}"
            in_deps: List[int] = []
            if previous_outs is not None:
                in_deps.append(previous_outs[index])
            if anchor is not None:
                in_deps.append(anchor)
            swap_in = self._opt_chunk_in(
                cls, action, chunk_tag, device, chunk, tuple(in_deps)
            )
            update = self.builder.emit(
                OptimStep,
                name=f"optstep.{chunk_tag}",
                stream=update_stream,
                mode="fifo",
                duration=step_time * (chunk / total),
                deps=(swap_in,),
                device=device,
                stage=cls.stage,
                minibatch=minibatch,
            )
            out = self._opt_chunk_out(cls, action, chunk_tag, device, chunk, (update,))
            outs.append(out)
            last_update = update
        if last_update is not None:
            self.builder.edge(opt_iid, last_update)
        return outs

    def _opt_chunk_in(
        self, cls, action: Action, tag: str, device: int, chunk: int, deps: Tuple[int, ...]
    ) -> int:
        if action is Action.CPU_SWAP:
            entry = self.plan.entry_for(cls)
            if entry.tier == "nvme":
                nvme = self.job.server.nvme
                fetch = self.builder.emit(
                    NvmeRead,
                    name=f"nvmeread.{tag}",
                    stream=("nvme", "read"),
                    mode="pool",
                    duration=chunk / nvme.read_bandwidth,
                    deps=deps,
                    device=device,
                    tag=tag,
                    size=chunk,
                )
                deps = (fetch,)
            return self.builder.emit(
                SwapIn,
                name=f"swapin.{tag}",
                stream=("pcie_h2d", device),
                mode="pool",
                duration=transfer_time(chunk, self.job.server.pcie, lanes=1),
                deps=deps,
                start=[(ALLOC, device, chunk, tag)],
                done=[(RECORD, "swap_in", device, -1, -1)],
                device=device,
                tag=tag,
                size=chunk,
                tier=entry.tier,
            )
        # D2D: pull the chunk's share of every stripe block back.
        stripe = self.plan.entry_for(cls).stripe
        nvlink = self.job.server.topology.nvlink
        begin = self.builder.emit(
            Barrier,
            name=f"d2din.{tag}.begin",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=deps,
            done=[(ALLOC, device, chunk, tag)],
            device=device,
        )
        blocks: List[int] = []
        fraction = chunk / float(cls.size)
        for b_index, block in enumerate(stripe.blocks):
            share = max(1, int(block.size * fraction))
            blocks.append(
                self.builder.emit(
                    P2PRecv,
                    name=f"d2din.{tag}.b{b_index}",
                    stream=block.return_lane,
                    mode="pool",
                    duration=transfer_time(share, nvlink, lanes=1),
                    deps=(begin,),
                    device=device,
                    src=block.importer,
                    dst=device,
                )
            )
        return self.builder.emit(
            Barrier,
            name=f"d2din.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(blocks),
            done=[(RECORD, "swap_in", device, -1, -1)],
            device=device,
        )

    def _opt_chunk_out(
        self, cls, action: Action, tag: str, device: int, chunk: int, deps: Tuple[int, ...]
    ) -> int:
        if action is Action.CPU_SWAP:
            entry = self.plan.entry_for(cls)
            out = self.builder.emit(
                SwapOut,
                name=f"swapout.{tag}",
                stream=("pcie_d2h", device),
                mode="pool",
                duration=transfer_time(chunk, self.job.server.pcie, lanes=1),
                deps=deps,
                done=[(DROP, device, chunk, tag), (RECORD, "swap_out", device, -1, -1)],
                device=device,
                tag=tag,
                size=chunk,
                tier=entry.tier,
            )
            if entry.tier == "nvme":
                nvme = self.job.server.nvme
                return self.builder.emit(
                    NvmeWrite,
                    name=f"nvmewrite.{tag}",
                    stream=("nvme", "write"),
                    mode="pool",
                    duration=chunk / nvme.write_bandwidth,
                    deps=(out,),
                    device=device,
                    tag=tag,
                    size=chunk,
                )
            return out
        stripe = self.plan.entry_for(cls).stripe
        nvlink = self.job.server.topology.nvlink
        blocks: List[int] = []
        fraction = chunk / float(cls.size)
        for b_index, block in enumerate(stripe.blocks):
            share = max(1, int(block.size * fraction))
            blocks.append(
                self.builder.emit(
                    P2PSend,
                    name=f"d2dout.{tag}.b{b_index}",
                    stream=block.lane,
                    mode="pool",
                    duration=transfer_time(share, nvlink, lanes=1),
                    deps=deps,
                    device=device,
                    src=device,
                    dst=block.importer,
                )
            )
        return self.builder.emit(
            Barrier,
            name=f"d2dout.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(blocks),
            done=[(DROP, device, chunk, tag), (RECORD, "swap_out", device, -1, -1)],
            device=device,
        )

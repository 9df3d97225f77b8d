"""The data-flow program: compute nodes and their dependencies.

``build_program`` lowers a (stage plan, schedule) pair into explicit
compute nodes with cross-stage dependency edges — the graph the
paper's *rewriter* instruments with memory-saving operators
(Figure 5, step 4) and the simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ScheduleError
from repro.pipeline.schedule import OpKind, PipelineSchedule
from repro.pipeline.stage import StagePlan

NodeKey = Tuple[str, int, int]  # (kind, stage, microbatch) — opt uses minibatch


@dataclass
class ComputeNode:
    """One scheduled computation with dependency edges."""

    kind: OpKind
    stage: int
    microbatch: int      # -1 for optimizer
    minibatch: int
    order: int           # position in its stage's issue order
    deps: List["ComputeNode"] = field(default_factory=list)

    @property
    def key(self) -> NodeKey:
        index = self.minibatch if self.kind is OpKind.OPTIMIZER else self.microbatch
        return (self.kind.value, self.stage, index)

    @property
    def name(self) -> str:
        kind, stage, index = self.key
        return f"{kind}.s{stage}.m{index}"


@dataclass
class Program:
    """Compute nodes grouped per stage in issue order."""

    stage_plan: StagePlan
    schedule: PipelineSchedule
    per_stage: List[List[ComputeNode]]
    by_key: Dict[NodeKey, ComputeNode]
    _flat: Optional[List[ComputeNode]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_stages(self) -> int:
        return len(self.per_stage)

    def node(self, kind: OpKind, stage: int, index: int) -> ComputeNode:
        key = (kind.value, stage, index)
        found = self.by_key.get(key)
        if found is None:
            raise ScheduleError(f"no node {key} in program")
        return found

    def nodes(self) -> List[ComputeNode]:
        # Cached: lowering walks the full node list several times per
        # plan and the per-stage grouping never changes after build.
        if self._flat is None:
            self._flat = [node for stage_nodes in self.per_stage for node in stage_nodes]
        return self._flat

    def first_backward_by_minibatch(self, stage: int) -> Dict[int, ComputeNode]:
        """First backward node per minibatch on ``stage``, in issue order.

        Anchors chunked optimizer-state prefetches: the minibatch's
        swap-ins may begin once its first backward starts clearing.
        """
        first: Dict[int, ComputeNode] = {}
        for node in self.per_stage[stage]:
            if node.kind is OpKind.BACKWARD and node.minibatch not in first:
                first[node.minibatch] = node
        return first


def build_program(stage_plan: StagePlan, schedule: PipelineSchedule) -> Program:
    """Lower a schedule into compute nodes with cross-stage edges.

    Edges encode the pipeline data flow of Figure 1: a stage's
    forward depends on its upstream neighbour's forward of the same
    microbatch (activation arrival), a stage's backward on its
    downstream neighbour's backward (gradient arrival), and each
    backward on its own forward.  Same-stage issue order is implicit
    in the in-order compute stream.
    """
    if stage_plan.n_stages != schedule.n_stages:
        raise ScheduleError(
            f"stage plan has {stage_plan.n_stages} stages, schedule {schedule.n_stages}"
        )
    per_stage: List[List[ComputeNode]] = []
    by_key: Dict[NodeKey, ComputeNode] = {}
    for stage in range(schedule.n_stages):
        nodes = []
        for order, op in enumerate(schedule.stage_ops(stage)):
            node = ComputeNode(
                kind=op.kind,
                stage=stage,
                microbatch=op.microbatch,
                minibatch=op.minibatch,
                order=order,
            )
            nodes.append(node)
            if node.key in by_key:
                raise ScheduleError(f"duplicate node {node.key}")
            by_key[node.key] = node
        per_stage.append(nodes)

    program = Program(
        stage_plan=stage_plan, schedule=schedule, per_stage=per_stage, by_key=by_key
    )
    last = schedule.n_stages - 1
    for node in program.nodes():
        if node.kind is OpKind.FORWARD and node.stage > 0:
            node.deps.append(program.node(OpKind.FORWARD, node.stage - 1, node.microbatch))
        elif node.kind is OpKind.BACKWARD:
            node.deps.append(program.node(OpKind.FORWARD, node.stage, node.microbatch))
            if node.stage < last:
                node.deps.append(
                    program.node(OpKind.BACKWARD, node.stage + 1, node.microbatch)
                )
    return program

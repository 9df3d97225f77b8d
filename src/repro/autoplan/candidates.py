"""Layer 1 of the autoplan pipeline: the candidate generator.

Enumerates every (tp, dp, pp, sequence_parallel) shape a job could
run with on a cluster — heterogeneous box sizes included — places
each one (``cluster_placement`` keeps chains inside a single server),
and applies the per-GPU memory budget *analytically*: the irreducible
per-stage working set (live parameters + gradients, plus the DDP
bucket staging buffers when dp > 1) must fit, because no
memory-saving technique can evict it.  Shapes whose total resident
demand exceeds the budget but whose floor fits are kept — that is
exactly the regime MPress's swap/recompute planning exists for — and
merely flagged, so the pricing layer can charge for the pressure.

Nothing is dropped silently: every enumerated shape either becomes a
:class:`ShapeCandidate` or a :class:`RejectedShape` with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, PlanError
from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.hardware.cluster import Cluster
from repro.job import TrainingJob
from repro.parallel.cluster import (
    ClusterPlacement,
    chain_server,
    cluster_placement,
)
from repro.parallel.sync import DEFAULT_BUCKET_BYTES
from repro.parallel.tensor import tp_shard_model

GiB = 2 ** 30


@dataclass(frozen=True)
class ShapeCandidate:
    """One valid, placed, budget-checked parallelism shape."""

    tp: int
    dp: int
    pp: int
    sequence_parallel: bool
    placement: ClusterPlacement
    chain_job: TrainingJob          # replica 0 / rank 0's analytic chain
    stage_demand_bytes: Tuple[int, ...]   # everything resident, per stage
    stage_floor_bytes: Tuple[int, ...]    # irreducible floor, per stage
    fits_unaided: bool              # demand fits without any plan

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.tp, self.dp, self.pp)

    @property
    def peak_demand_bytes(self) -> int:
        return max(self.stage_demand_bytes)


@dataclass(frozen=True)
class RejectedShape:
    """A shape the generator ruled out, and why."""

    tp: int
    dp: int
    pp: int
    sequence_parallel: bool
    reason: str

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.tp, self.dp, self.pp)


def _degrees(limit: int, power_of_two: bool) -> List[int]:
    if power_of_two:
        degrees, d = [], 1
        while d <= limit:
            degrees.append(d)
            d *= 2
        return degrees
    return list(range(1, limit + 1))


def default_budget_bytes(cluster: Cluster) -> int:
    """Per-GPU budget when none is given: the *smallest* GPU's memory.

    On a heterogeneous cluster a shape is only universally placeable
    if its per-GPU footprint respects the tightest box, so that is the
    conservative default.
    """
    return min(
        gpu.memory_bytes for server in cluster.servers for gpu in server.gpus
    )


def shape_grid(cluster: Cluster, power_of_two: bool = True
               ) -> List[Tuple[int, int, int]]:
    """The raw (tp, dp, pp) grid the generator enumerates.

    A replica block (``tp * pp`` GPUs) must fit inside the largest
    server — chains never straddle the fabric — and the product must
    fit on the cluster.  Validity beyond arithmetic (shardability,
    placement fit, budget) is the generator's job.
    """
    topology = cluster.topology
    largest = max(server.n_gpus for server in topology.servers)
    shapes: List[Tuple[int, int, int]] = []
    for tp in _degrees(largest, power_of_two):
        for pp in _degrees(largest, power_of_two):
            if tp * pp > largest:
                continue
            for dp in _degrees(topology.n_gpus // (tp * pp), power_of_two):
                shapes.append((tp, dp, pp))
    return shapes


def generate_candidates(
    job: TrainingJob,
    cluster: Cluster,
    budget_bytes: Optional[int] = None,
    sequence_parallel: bool = False,
    placement_mode: str = "auto",
    bucket_bytes: Optional[int] = None,
    power_of_two: bool = True,
) -> Tuple[List[ShapeCandidate], List[RejectedShape]]:
    """Enumerate, place and budget-check every shape on the grid."""
    topology = cluster.topology
    budget = default_budget_bytes(cluster) if budget_bytes is None \
        else budget_bytes
    staging_bytes = bucket_bytes if bucket_bytes is not None \
        else DEFAULT_BUCKET_BYTES
    candidates: List[ShapeCandidate] = []
    rejected: List[RejectedShape] = []

    def reject(tp: int, dp: int, pp: int, reason: str) -> None:
        rejected.append(RejectedShape(
            tp=tp, dp=dp, pp=pp,
            sequence_parallel=sequence_parallel, reason=reason))

    sharded_by_tp = {}
    for tp, dp, pp in shape_grid(cluster, power_of_two):
        if tp not in sharded_by_tp:
            try:
                sharded_by_tp[tp] = tp_shard_model(
                    job.model, tp, sequence_parallel)
            except ConfigurationError as error:
                sharded_by_tp[tp] = error
        sharded = sharded_by_tp[tp]
        if isinstance(sharded, ConfigurationError):
            reject(tp, dp, pp, str(sharded))
            continue
        try:
            placement = cluster_placement(topology, tp, dp, pp,
                                          mode=placement_mode)
        except ConfigurationError as error:
            reject(tp, dp, pp, str(error))
            continue
        chain_job = replace(
            job, model=sharded,
            server=chain_server(cluster, topology, placement.chain(0, 0)))
        try:
            classes = tensor_classes_for(
                chain_job.stage_plan, chain_job.schedule,
                chain_job.microbatch_size, chain_job.bytes_per_element)
        except (ConfigurationError, PlanError) as error:
            reject(tp, dp, pp, str(error))
            continue
        staging = 2 * staging_bytes if dp > 1 else 0
        demand = [staging] * pp
        floor = [staging] * pp
        for cls in classes:
            demand[cls.stage] += cls.peak_bytes
            if cls.kind is TensorKind.WORKING_STATE:
                floor[cls.stage] += cls.peak_bytes
        over = [stage for stage in range(pp) if floor[stage] > budget]
        if over:
            stage = over[0]
            reject(tp, dp, pp, (
                f"stage {stage} irreducible working set "
                f"{floor[stage] / GiB:.2f} GiB (+{staging / GiB:.2f} GiB DP "
                f"staging) exceeds the {budget / GiB:.2f} GiB per-GPU "
                f"budget — no memory-saving plan can fit this shape"))
            continue
        candidates.append(ShapeCandidate(
            tp=tp, dp=dp, pp=pp,
            sequence_parallel=sequence_parallel,
            placement=placement,
            chain_job=chain_job,
            stage_demand_bytes=tuple(demand),
            stage_floor_bytes=tuple(floor),
            fits_unaided=all(d <= budget for d in demand),
        ))
    return candidates, rejected

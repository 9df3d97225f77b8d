"""The two synchronisation planes of a TP x DP x PP run, shared
between execution and pricing.

:func:`~repro.parallel.cluster.run_placed` (behind both
``run_cluster`` and ``run_hybrid``) and the autoplan pricing layer —
which needs the accounting *without* simulating any chain first — read
both planes from here, for any
:class:`~repro.parallel.placement.ClusterPlacement`, parameterised by
the chain job (either a simulated representative's job or an
analytically built one) and a stage -> device mapping.  Per-bucket all-reduce pricing and the
:class:`StageAllReduce` record live here too.

Two pricing regimes:

* **independent** (``contention=False``) — each collective group is
  priced as if it owned its links outright.  This is what
  ``run_cluster`` has always reported and what the pinned cluster
  golden records; it stays byte-identical.
* **contended** (``contention=True``) — the regime autoplan ranks
  shapes under.  Two effects the independent model misses:

  1. *Shared NIC lanes.*  Every (tp-rank, stage) gradient group that
     crosses the fabric funnels through its server's ``nic_lanes``.
     When ``g`` crossing groups share a server's lanes, each sees
     ``g / nic_lanes`` of a lane, so its bucket times stretch by that
     factor.
  2. *TP traffic inside the DP window.*  Gradient buckets hide behind
     the backward drain, but during that same drain the chain is still
     issuing per-microbatch TP all-reduces on the same GPUs' comm
     engines.  The backward half of the stage's TP time is subtracted
     from the overlap window.

  Both effects only ever shrink the window or stretch the transfers,
  and :func:`~repro.parallel.bucketing.exposed_allreduce_time` is
  monotone (non-increasing in the window, non-decreasing in bucket
  times), so the contended price is >= the independent price on every
  shape, with equality when nothing crosses the fabric and tp == 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives.cost import best_all_reduce, collective_time, group_span
from repro.collectives.lowering import simulate_collective_time
from repro.collectives.schedule import all_reduce_schedule
from repro.job import TrainingJob
from repro.parallel.bucketing import (
    GradientBucket,
    exposed_allreduce_time,
    gradient_buckets,
)
from repro.parallel.tensor import tp_sync_time

COLLECTIVE_MODES = ("analytic", "simulate")
DEFAULT_BUCKET_BYTES = 25 * 1024 * 1024


@dataclass(frozen=True)
class StageAllReduce:
    """Gradient synchronisation accounting for one pipeline stage."""

    stage: int
    devices: Tuple[int, ...]
    algorithm: str
    grad_bytes: int
    n_buckets: int
    allreduce_seconds: float    # total wire time of all buckets
    exposed_seconds: float      # tail left after backward overlap


@dataclass(frozen=True)
class StageTPSync:
    """Tensor-parallel collective accounting for one pipeline stage."""

    stage: int
    n_groups: int
    microbatch_seconds: float   # TP all-reduce time, one microbatch fwd+bwd
    minibatch_seconds: float    # x microbatches per minibatch


def tp_sync_plane(placement, topology, job: TrainingJob, config,
                  chain_job: TrainingJob) -> List[StageTPSync]:
    """Per-stage TP collective accounting (worst group per stage).

    ``chain_job`` supplies the sharded stage plan — the simulated
    representative's job in ``run_cluster``, an analytic chain job in
    the pricing layer; the numbers are identical either way.
    """
    if placement.tp < 2:
        return []
    plan = chain_job.stage_plan
    algorithm = config.algorithm if config.algorithm != "auto" else "ring"
    syncs: List[StageTPSync] = []
    for stage in range(placement.pp):
        worst = 0.0
        for replica in range(placement.dp):
            group = placement.tp_group(replica, stage)
            seconds = tp_sync_time(
                plan.stage(stage).layers, topology, group,
                job.microbatch_size, job.bytes_per_element,
                algorithm=algorithm)
            worst = max(worst, seconds)
        per_minibatch = worst * job.microbatches_per_minibatch
        syncs.append(StageTPSync(
            stage=stage,
            n_groups=placement.dp,
            microbatch_seconds=worst,
            minibatch_seconds=per_minibatch,
        ))
    return syncs


def _bucket_times(topology, group, buckets: Tuple[GradientBucket, ...],
                  config, server) -> Tuple[List[float], str]:
    """Per-bucket all-reduce seconds (bucket sizes dedupe to <= 2)."""
    by_size: Dict[int, Tuple[float, str]] = {}
    for bucket in buckets:
        if bucket.size in by_size:
            continue
        if config.algorithm == "auto":
            schedule, _ = best_all_reduce(topology, group, bucket.size,
                                          pcie=server.pcie)
        else:
            schedule = all_reduce_schedule(topology, group, bucket.size,
                                           config.algorithm)
        if config.collective_mode == "simulate":
            seconds = simulate_collective_time(server, schedule)
        else:
            seconds = collective_time(schedule, topology, server.pcie)
        by_size[bucket.size] = (seconds, schedule.algorithm)
    times = [by_size[bucket.size][0] for bucket in buckets]
    algorithm = by_size[buckets[0].size][1]
    return times, algorithm


def dp_lane_factors(topology, placement) -> Dict[Tuple[int, int], float]:
    """NIC-lane stretch factor per (tp_rank, stage) gradient group.

    A group that stays inside one server keeps factor 1.0.  A group
    that crosses the fabric shares its servers' NIC lanes with every
    *other* crossing group touching the same server; its transfers
    stretch by the worst ``crossing_groups / nic_lanes`` ratio along
    its path (never below 1.0).
    """
    groups: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for stage in range(placement.pp):
        for tp_rank in range(placement.tp):
            groups[(tp_rank, stage)] = placement.dp_group(tp_rank, stage)
    server_of = getattr(topology, "server_of", None)
    if server_of is None:
        return {key: 1.0 for key in groups}
    spans = {key: {server_of(d) for d in group}
             for key, group in groups.items()}
    crossing = {key for key, span in spans.items() if len(span) > 1}
    per_server: Dict[int, int] = {}
    for key in crossing:
        for server in spans[key]:
            per_server[server] = per_server.get(server, 0) + 1
    lanes = max(1, getattr(topology, "nic_lanes", 1))
    factors: Dict[Tuple[int, int], float] = {}
    for key in groups:
        if key in crossing:
            worst = max(per_server[server] for server in spans[key])
            factors[key] = max(1.0, worst / lanes)
        else:
            factors[key] = 1.0
    return factors


def dp_sync_plane(placement, topology, job: TrainingJob, config, server,
                  chain_job: TrainingJob,
                  device_of: Callable[[int], int],
                  tp_sync: Sequence[StageTPSync] = (),
                  contention: bool = False) -> List[StageAllReduce]:
    """Per-(tp-rank, stage) gradient sync; report the worst per stage.

    ``device_of`` maps a chain stage to its device in ``chain_job``'s
    carve-out (a plan's ``device_of`` after simulation, the identity
    map for analytic pricing).  With ``contention=False`` this is the
    historical independent accounting, byte for byte.
    """
    if placement.dp < 2:
        return []
    schedule = chain_job.schedule
    last_minibatch = chain_job.n_minibatches - 1
    tp_by_stage = {sync.stage: sync for sync in tp_sync}
    factors = dp_lane_factors(topology, placement) if contention else None
    syncs: List[StageAllReduce] = []
    for stage in range(placement.pp):
        grad_bytes = (chain_job.stage_plan.stage(stage).params
                      * job.bytes_per_element)
        if grad_bytes <= 0:
            continue
        buckets = gradient_buckets(grad_bytes, config.bucket_bytes)
        drain = schedule.backward_drain(stage, last_minibatch)
        device = device_of(stage)
        window = drain * chain_job.backward_time(stage, device)
        if contention:
            stage_tp = tp_by_stage.get(stage)
            if stage_tp is not None:
                # The backward half of each in-drain microbatch's TP
                # all-reduces competes with the gradient buckets.
                window = max(
                    0.0, window - 0.5 * drain * stage_tp.microbatch_seconds)
        worst: Optional[StageAllReduce] = None
        for tp_rank in range(placement.tp):
            group = placement.dp_group(tp_rank, stage)
            times, algorithm = _bucket_times(topology, group, buckets,
                                             config, server)
            if contention:
                factor = factors[(tp_rank, stage)]
                if factor > 1.0:
                    times = [t * factor for t in times]
            exposed = exposed_allreduce_time(buckets, times, window,
                                             overlap=config.overlap)
            candidate = StageAllReduce(
                stage=stage,
                devices=group,
                algorithm=algorithm,
                grad_bytes=grad_bytes,
                n_buckets=len(buckets),
                allreduce_seconds=float(sum(times)),
                exposed_seconds=exposed,
            )
            if worst is None or candidate.exposed_seconds > worst.exposed_seconds:
                worst = candidate
        syncs.append(worst)
    return syncs


@dataclass(frozen=True)
class SyncPricing:
    """Both pricing regimes of one placement's synchronisation planes."""

    tp_sync: Tuple[StageTPSync, ...]
    dp_independent: Tuple[StageAllReduce, ...]
    dp_contended: Tuple[StageAllReduce, ...]
    crosses_fabric: bool

    @property
    def exposed_tp_sync(self) -> float:
        if not self.tp_sync:
            return 0.0
        return max(sync.minibatch_seconds for sync in self.tp_sync)

    @property
    def exposed_dp_independent(self) -> float:
        if not self.dp_independent:
            return 0.0
        return max(sync.exposed_seconds for sync in self.dp_independent)

    @property
    def exposed_dp_contended(self) -> float:
        if not self.dp_contended:
            return 0.0
        return max(sync.exposed_seconds for sync in self.dp_contended)

    @property
    def independent_seconds(self) -> float:
        """Exposed sync tail under the legacy per-plane pricing."""
        return self.exposed_tp_sync + self.exposed_dp_independent

    @property
    def contended_seconds(self) -> float:
        """Exposed sync tail with shared fabric lanes contending."""
        return self.exposed_tp_sync + self.exposed_dp_contended

    @property
    def contention_seconds(self) -> float:
        """What the independent model under-prices (always >= 0)."""
        return self.contended_seconds - self.independent_seconds


def price_sync_planes(placement, topology, job: TrainingJob, config, server,
                      chain_job: TrainingJob,
                      device_of: Optional[Callable[[int], int]] = None
                      ) -> SyncPricing:
    """Price both sync planes of a placement, analytically.

    The autoplan pricing layer's entry point: no simulation has
    happened, so ``device_of`` defaults to the identity stage -> device
    map of a freshly placed chain.
    """
    if device_of is None:
        device_of = lambda stage: stage  # noqa: E731
    tp_sync = tuple(tp_sync_plane(placement, topology, job, config, chain_job))
    dp_kwargs = dict(tp_sync=tp_sync)
    independent = tuple(dp_sync_plane(
        placement, topology, job, config, server, chain_job, device_of,
        contention=False, **dp_kwargs))
    contended = tuple(dp_sync_plane(
        placement, topology, job, config, server, chain_job, device_of,
        contention=True, **dp_kwargs))
    crosses = False
    if placement.dp > 1:
        for stage in range(placement.pp):
            for tp_rank in range(placement.tp):
                group = placement.dp_group(tp_rank, stage)
                if group_span(topology, group) > 1:
                    crosses = True
                    break
            if crosses:
                break
    return SyncPricing(tp_sync=tp_sync, dp_independent=independent,
                       dp_contended=contended, crosses_fabric=crosses)

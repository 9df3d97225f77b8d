"""Hybrid data x pipeline parallelism over one multi-GPU server.

``run_hybrid`` splits the server into ``dp`` replica groups (see
:mod:`repro.parallel.placement`), runs the full memory-managed
pipeline inside each replica through the existing system facade, and
layers DDP-style gradient synchronisation on top: per-stage gradient
buckets all-reduce across the replicas' stage groups, overlapping
with the backward drain of the pipeline schedule.  That accounting is
the cluster path's DP plane (:func:`repro.parallel.sync.dp_sync_plane`)
at tp=1.

Modelling choices, deliberately explicit:

* the job spec is *per replica* (weak scaling): every replica
  processes ``samples_per_minibatch`` samples, so hybrid throughput
  is ``dp * samples_per_minibatch / minibatch_time``;
* replicas are homogeneous, so the hybrid minibatch time is the
  slowest replica plus the worst stage's exposed all-reduce tail —
  synchronous DP applied to PipeDream is an approximation (real
  PipeDream would version weights), noted in ``docs/collectives.md``;
* each replica's planner reserves ``2 * bucket_bytes`` of GPU memory
  for double-buffered bucket staging (wired through
  ``Planner(reserve_bytes=...)``), and the same reserve is added to
  the reported per-GPU peaks.

``run_hybrid`` (like ``run_cluster``) executes one *given* shape;
:mod:`repro.autoplan` searches the shape grid and calls into these
facades only for its simulated frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.job import TrainingJob
from repro.collectives.schedule import ALL_REDUCE_ALGORITHMS
from repro.parallel.placement import (
    PLACEMENT_MODES,
    ReplicaPlacement,
    replica_placement,
    sub_server,
)
from repro.parallel.sync import (
    COLLECTIVE_MODES,
    DEFAULT_BUCKET_BYTES,
    StageAllReduce,
    dp_sync_plane,
)

@dataclass(frozen=True)
class HybridConfig:
    """Knobs of one hybrid DP x PP execution (hashable, picklable)."""

    dp: int = 2
    algorithm: str = "auto"               # all-reduce algorithm or "auto"
    bucket_bytes: int = DEFAULT_BUCKET_BYTES
    overlap: bool = True
    collective_mode: str = "analytic"     # "analytic" | "simulate"
    placement_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.dp < 1:
            raise ConfigurationError(
                f"data-parallel degree must be >= 1, got {self.dp}")
        if self.bucket_bytes <= 0:
            raise ConfigurationError(
                f"bucket bytes must be positive, got {self.bucket_bytes}")
        if self.algorithm != "auto" and self.algorithm not in ALL_REDUCE_ALGORITHMS:
            raise ConfigurationError(
                f"unknown all-reduce algorithm {self.algorithm!r}; options: "
                f"{('auto',) + ALL_REDUCE_ALGORITHMS}")
        if self.collective_mode not in COLLECTIVE_MODES:
            raise ConfigurationError(
                f"unknown collective mode {self.collective_mode!r}; "
                f"options: {COLLECTIVE_MODES}")
        if self.placement_mode not in PLACEMENT_MODES:
            raise ConfigurationError(
                f"unknown placement mode {self.placement_mode!r}; "
                f"options: {PLACEMENT_MODES}")


@dataclass
class HybridResult:
    """Replica runs plus the DP synchronisation layered on top."""

    job: TrainingJob
    config: HybridConfig
    system: str
    placement: ReplicaPlacement
    replicas: List            # MPressResult per replica
    stage_allreduce: List[StageAllReduce]

    @property
    def ok(self) -> bool:
        return all(replica.ok for replica in self.replicas)

    @property
    def dp(self) -> int:
        return self.placement.dp

    @property
    def exposed_allreduce(self) -> float:
        if not self.stage_allreduce:
            return 0.0
        return max(sync.exposed_seconds for sync in self.stage_allreduce)

    @property
    def replica_minibatch_time(self) -> float:
        return max(
            replica.simulation.minibatch_time for replica in self.replicas)

    @property
    def minibatch_time(self) -> float:
        return self.replica_minibatch_time + self.exposed_allreduce

    @property
    def makespan(self) -> float:
        longest = max(replica.simulation.makespan for replica in self.replicas)
        return longest + self.job.n_minibatches * self.exposed_allreduce

    @property
    def samples_per_second(self) -> float:
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.dp * self.job.samples_per_minibatch / self.minibatch_time

    @property
    def tflops(self) -> float:
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        replica_flops = self.replicas[0].job.minibatch_flops()
        return self.dp * replica_flops / self.minibatch_time / 1e12

    @property
    def oom(self) -> Optional[str]:
        for index, replica in enumerate(self.replicas):
            if not replica.ok:
                return f"replica {index}: {replica.simulation.oom}"
        return None

    def peak_memory_per_gpu(self) -> List[int]:
        """Per-GPU peaks on the *full* server (bucket staging added)."""
        peaks = [0] * self.job.server.n_gpus
        staging = 2 * self.config.bucket_bytes if self.dp > 1 else 0
        for group, replica in zip(self.placement.groups, self.replicas):
            if not replica.ok:
                continue
            for local, peak in enumerate(replica.simulation.peak_memory_per_gpu):
                peaks[group[local]] = int(peak) + staging
        return peaks


def run_hybrid(job: TrainingJob, config: Optional[HybridConfig] = None,
               system: str = "mpress") -> HybridResult:
    """Run a hybrid DP x PP job: ``dp`` replicas plus gradient sync."""
    from repro.core.mpress import run_system

    if config is None:
        config = HybridConfig()
    placement = replica_placement(job.server.topology, config.dp,
                                  mode=config.placement_mode)
    if config.dp == 1:
        replica = run_system(job, system)
        return HybridResult(job=job, config=config, system=system,
                            placement=placement, replicas=[replica],
                            stage_allreduce=[])
    reserve = 2 * config.bucket_bytes
    replicas = []
    for group in placement.groups:
        replica_job = replace(job, server=sub_server(job.server, group))
        replicas.append(run_system(replica_job, system,
                                   reserve_bytes=reserve))
    syncs = dp_sync_plane(placement, job.server.topology, job, config,
                          job.server, replicas[0].job,
                          replicas[0].plan.device_of)
    return HybridResult(job=job, config=config, system=system,
                        placement=placement, replicas=replicas,
                        stage_allreduce=syncs)

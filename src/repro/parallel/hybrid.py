"""Hybrid data x pipeline parallelism over one multi-GPU server.

``run_hybrid`` is the tp=1, one-server corner of the cluster path:
:func:`~repro.parallel.placement.replica_placement` splits the server
into ``dp`` replica groups (contiguous, strided or NVLink islands,
whichever the collective model scores best), then
:func:`~repro.parallel.cluster.run_placed` runs the full
memory-managed pipeline inside each replica and layers DDP-style
gradient synchronisation on top: per-stage gradient buckets
all-reduce across the replicas' stage groups, overlapping with the
backward drain of the pipeline schedule.

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

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.job import TrainingJob
from repro.parallel.cluster import ClusterConfig, ClusterResult, run_placed
from repro.parallel.placement import PLACEMENT_MODES, replica_placement
from repro.parallel.sync import DEFAULT_BUCKET_BYTES


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
        self.cluster_config()       # validates every field it maps
        if self.placement_mode not in PLACEMENT_MODES:
            raise ConfigurationError(
                f"unknown placement mode {self.placement_mode!r}; "
                f"options: {PLACEMENT_MODES}")

    def cluster_config(self) -> ClusterConfig:
        """The tp=1 cluster config this hybrid run executes under."""
        return ClusterConfig(dp=self.dp, algorithm=self.algorithm,
                             bucket_bytes=self.bucket_bytes,
                             overlap=self.overlap,
                             collective_mode=self.collective_mode)


def run_hybrid(job: TrainingJob, config: Optional[HybridConfig] = None,
               system: str = "mpress") -> ClusterResult:
    """Run a hybrid DP x PP job: ``dp`` replicas plus gradient sync."""
    if config is None:
        config = HybridConfig()
    placement = replica_placement(job.server.topology, config.dp,
                                  mode=config.placement_mode)
    cluster = Cluster(name=job.server.name, servers=(job.server,))
    return run_placed(job, cluster, config.cluster_config(), placement,
                      system)


def replica_oom(result: ClusterResult) -> Optional[str]:
    """A hybrid run's OOM line: ``replica N: …`` for the first replica
    that did not fit (every replica is one tp=1 chain)."""
    return next((f"replica {index}: {chains[0].simulation.oom}"
                 for index, chains in enumerate(result.chains)
                 if not chains[0].ok), None)

"""3D parallelism over a multi-server cluster: TP x DP x PP.

``run_cluster`` completes the parallelism cube.  Each data-parallel
replica is a *block* of ``tp x pp`` GPUs: ``tp`` tensor-parallel
pipeline chains of ``pp`` stages each.  Every chain runs the full
memory-managed pipeline (through the existing system facade) over a
TP-sharded model (:mod:`repro.parallel.tensor`); the two
synchronisation planes (:mod:`repro.parallel.sync`) are layered on
analytically:

* **TP sync** — per-layer partial-sum all-reduces inside each stage's
  TP group, every microbatch, both directions.  These inflate the
  pipeline's bottleneck stage, so the exposed cost per minibatch is
  the *worst stage's* TP seconds (other stages' collectives hide
  behind the bottleneck's).
* **DP sync** — per-stage gradient buckets all-reduce across replicas
  (one group per (tp-rank, stage) shard), overlapping with the
  backward drain.

Placement is TP-inner / DP-outer against the tier hierarchy: chains
never straddle a server (cross-server stage traffic would contend on
the thin fabric every microbatch), TP groups sit on the tightest
lanes available, and whether DP replicas pack into one box or spread
across the fabric is decided by scoring both layouts with the
analytic collective model.

``run_cluster`` is :func:`cluster_placement` followed by
:func:`run_placed`.  Single-server DP x PP
(:func:`repro.parallel.hybrid.run_hybrid`) is the tp=1, one-server
corner: its own layout policy, then the same :func:`run_placed`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.serialization import canonical_payload, config_digest
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster, ClusterTopology
from repro.job import TrainingJob
from repro.collectives.schedule import ALL_REDUCE_ALGORITHMS
from repro.parallel.placement import (
    CLUSTER_PLACEMENT_MODES,
    ClusterPlacement,
    score_layout,
    sub_server,
)
from repro.parallel.sync import (
    COLLECTIVE_MODES,
    DEFAULT_BUCKET_BYTES,
    StageAllReduce,
    StageTPSync,
    dp_sync_plane,
    tp_sync_plane,
)
from repro.parallel.tensor import tp_shard_model


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one TP x DP x PP cluster execution (hashable)."""

    tp: int = 1
    dp: int = 1
    pp: int = 0                           # 0 = fill: n_gpus // (tp * dp)
    sequence_parallel: bool = False
    algorithm: str = "auto"               # all-reduce algorithm or "auto"
    bucket_bytes: int = DEFAULT_BUCKET_BYTES
    overlap: bool = True
    collective_mode: str = "analytic"     # "analytic" | "simulate"
    placement_mode: str = "auto"          # "auto" | "packed" | "spread"

    def __post_init__(self) -> None:
        if self.tp < 1 or self.dp < 1 or self.pp < 0:
            raise ConfigurationError(
                f"parallel degrees must be positive (pp may be 0 for auto), "
                f"got tp={self.tp} dp={self.dp} pp={self.pp}")
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
        if self.placement_mode not in CLUSTER_PLACEMENT_MODES:
            raise ConfigurationError(
                f"unknown placement mode {self.placement_mode!r}; "
                f"options: {CLUSTER_PLACEMENT_MODES}")

    def stages(self, n_gpus: int) -> int:
        """Resolved pipeline depth on an ``n_gpus`` cluster."""
        if self.pp > 0:
            return self.pp
        pp = n_gpus // (self.tp * self.dp)
        if pp < 1:
            raise ConfigurationError(
                f"tp={self.tp} x dp={self.dp} exceeds {n_gpus} GPUs")
        return pp


def _block_chains(block: Sequence[int], tp: int, pp: int, stage_major: bool
                  ) -> Tuple[Tuple[int, ...], ...]:
    """Assign a ``tp*pp`` device block to chains.

    ``stage_major`` keeps each stage's TP group on consecutive devices
    (TP-tight); the alternative keeps each chain contiguous
    (pipeline-tight).  Both are scored; the collective model decides.
    """
    if stage_major:
        return tuple(
            tuple(block[s * tp + t] for s in range(pp)) for t in range(tp)
        )
    return tuple(
        tuple(block[t * pp + s] for s in range(pp)) for t in range(tp)
    )


def _replica_blocks(topology: ClusterTopology, tp: int, dp: int, pp: int,
                    spread: bool) -> Optional[List[List[int]]]:
    """Carve ``dp`` blocks of ``tp*pp`` GPUs, none straddling a server.

    ``packed`` fills servers in order; ``spread`` deals replicas
    round-robin across servers.  Returns ``None`` when the shape does
    not fit (a block larger than a server, or uneven round-robin).
    """
    block = tp * pp
    free = [list(topology.server_devices(s)) for s in range(topology.n_servers)]
    blocks: List[List[int]] = []
    server = 0
    for r in range(dp):
        if spread:
            server = r % topology.n_servers
            if len(free[server]) < block:
                return None
        else:
            while server < len(free) and len(free[server]) < block:
                server += 1
            if server >= len(free):
                return None
        blocks.append(free[server][:block])
        free[server] = free[server][block:]
    return blocks


def cluster_placement(topology: ClusterTopology, tp: int, dp: int, pp: int,
                      mode: str = "auto") -> ClusterPlacement:
    """Place ``dp`` replicas of ``tp`` pipeline chains on the cluster.

    Every candidate keeps chains within one server (TP-inner); the
    ``packed`` / ``spread`` choice and the within-block assignment are
    scored with the analytic collective model on reference sizes.
    """
    if mode not in CLUSTER_PLACEMENT_MODES:
        raise ConfigurationError(
            f"unknown placement mode {mode!r}; "
            f"options: {CLUSTER_PLACEMENT_MODES}")
    if min(tp, dp, pp) < 1:
        raise ConfigurationError(
            f"parallel degrees must be >= 1, got tp={tp} dp={dp} pp={pp}")
    if tp * dp * pp > topology.n_gpus:
        raise ConfigurationError(
            f"tp={tp} x dp={dp} x pp={pp} needs {tp * dp * pp} GPUs, "
            f"cluster has {topology.n_gpus}")
    if tp * pp > max(t.n_gpus for t in topology.servers):
        raise ConfigurationError(
            f"a replica block (tp*pp = {tp * pp} GPUs) must fit inside "
            f"one server (largest has "
            f"{max(t.n_gpus for t in topology.servers)})")
    wanted = CLUSTER_PLACEMENT_MODES[1:] if mode == "auto" else (mode,)
    candidates: List[ClusterPlacement] = []
    for name in wanted:
        blocks = _replica_blocks(topology, tp, dp, pp, spread=(name == "spread"))
        if blocks is None:
            continue
        for stage_major in (True, False):
            chains = tuple(
                _block_chains(block, tp, pp, stage_major) for block in blocks
            )
            tp_s, ar_s, pipe_s = score_layout(topology, chains)
            candidates.append(ClusterPlacement(
                chains=chains, mode=name, tp_score=tp_s,
                allreduce_score=ar_s, pipeline_score=pipe_s,
                stage_major=stage_major))
    if not candidates:
        raise ConfigurationError(
            f"no placement fits tp={tp} dp={dp} pp={pp} on this cluster "
            f"(mode={mode!r})")
    # min() over the canonical key, not a first-wins scan: equal scores
    # resolve to the same layout on every run and Python version.
    return min(candidates, key=lambda candidate: candidate.canonical_key)


@dataclass
class ClusterResult:
    """Chain runs plus the TP and DP synchronisation planes."""

    job: TrainingJob
    cluster: Cluster
    config: ClusterConfig
    system: str
    placement: ClusterPlacement
    chains: List[List]          # MPressResult per [replica][tp_rank]
    stage_allreduce: List[StageAllReduce]
    tp_sync: List[StageTPSync]

    @property
    def ok(self) -> bool:
        return all(chain.ok for replica in self.chains for chain in replica)

    @property
    def dp(self) -> int:
        return self.placement.dp

    @property
    def tp(self) -> int:
        return self.placement.tp

    @property
    def pp(self) -> int:
        return self.placement.pp

    @property
    def exposed_allreduce(self) -> float:
        if not self.stage_allreduce:
            return 0.0
        return max(sync.exposed_seconds for sync in self.stage_allreduce)

    @property
    def exposed_tp_sync(self) -> float:
        """Per-minibatch TP cost: the bottleneck stage's collectives."""
        if not self.tp_sync:
            return 0.0
        return max(sync.minibatch_seconds for sync in self.tp_sync)

    @property
    def chain_minibatch_time(self) -> float:
        return max(
            chain.simulation.minibatch_time
            for replica in self.chains for chain in replica)

    @property
    def minibatch_time(self) -> float:
        return (self.chain_minibatch_time + self.exposed_tp_sync
                + self.exposed_allreduce)

    @property
    def makespan(self) -> float:
        longest = max(
            chain.simulation.makespan
            for replica in self.chains for chain in replica)
        overhead = self.exposed_tp_sync + self.exposed_allreduce
        return longest + self.job.n_minibatches * overhead

    @property
    def samples_per_second(self) -> float:
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.dp * self.job.samples_per_minibatch / self.minibatch_time

    @property
    def tflops(self) -> float:
        """Model FLOPs per second: ``dp`` full-model minibatches per
        interval (a replica's ``tp`` chains jointly compute one)."""
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.dp * self.job.minibatch_flops() / self.minibatch_time / 1e12

    @property
    def oom(self) -> Optional[str]:
        for r, replica in enumerate(self.chains):
            for t, chain in enumerate(replica):
                if not chain.ok:
                    return f"replica {r} tp-rank {t}: {chain.simulation.oom}"
        return None

    def peak_memory_per_gpu(self) -> List[int]:
        """Per-GPU peaks across the whole cluster (staging added)."""
        peaks = [0] * self.cluster.n_gpus
        staging = 2 * self.config.bucket_bytes if self.dp > 1 else 0
        for replica_chains, replica_results in zip(self.placement.chains,
                                                   self.chains):
            for devices, result in zip(replica_chains, replica_results):
                if not result.ok:
                    continue
                sim_peaks = result.simulation.peak_memory_per_gpu
                for local, device in enumerate(devices):
                    peaks[device] = int(sim_peaks[local]) + staging
        return peaks


def chain_server(cluster: Cluster, topology: ClusterTopology,
                 devices: Tuple[int, ...]):
    """The sub-server one pipeline chain sees (always within one box)."""
    server_index = topology.server_of(devices[0])
    base = topology.server_offsets()[server_index]
    local = [device - base for device in devices]
    return sub_server(cluster.servers[server_index], local)


# -- congruent-chain memoisation ---------------------------------------
#
# Placed chains are frequently *congruent*: same sharded model, same
# batch geometry, same induced carve-out topology — only the
# sub-server's display name (which devices it was cut from) differs.
# The simulator is deterministic, so congruent chains produce
# byte-identical results (records embed no server names; trace digests
# hash device-indexed events).  One simulation per congruence class is
# the "one Lowering skeleton per shape family" the frontier executor
# relies on; ``shared_chain_memo`` widens the reuse window across
# ``run_cluster`` calls (e.g. a whole shape grid).

_SHARED_CHAIN_MEMO: Optional[Dict[str, object]] = None


@contextlib.contextmanager
def shared_chain_memo():
    """Share congruent-chain results across ``run_cluster`` calls.

    Nested uses join the outermost scope's memo; the memo dies with
    the scope, so long-running processes don't accumulate results.
    """
    global _SHARED_CHAIN_MEMO
    outer = _SHARED_CHAIN_MEMO
    if outer is None:
        _SHARED_CHAIN_MEMO = {}
    try:
        yield _SHARED_CHAIN_MEMO
    finally:
        _SHARED_CHAIN_MEMO = outer


def _chain_memo_key(chain_job: TrainingJob, system: str, reserve: int) -> str:
    """Congruence class of one chain run (sub-server name stripped)."""
    normalized = replace(chain_job,
                         server=replace(chain_job.server, name="chain"))
    return config_digest({
        "job": canonical_payload(normalized),
        "system": system,
        "reserve": reserve,
    })


def plan_chain_job(job: TrainingJob, cluster: Cluster,
                   config: ClusterConfig) -> Tuple[TrainingJob, ClusterPlacement]:
    """The representative chain's job (replica 0, TP rank 0).

    What ``repro plan`` plans when pointed at a cluster: one pipeline
    chain's TP-sharded model on its placed carve-out.  All chains are
    congruent under the homogeneous placements produced here, so one
    plan stands for the fleet.
    """
    if config is None:
        config = ClusterConfig()
    topology = cluster.topology
    pp = config.stages(topology.n_gpus)
    placement = cluster_placement(topology, config.tp, config.dp, pp,
                                  mode=config.placement_mode)
    sharded = tp_shard_model(job.model, config.tp, config.sequence_parallel)
    devices = placement.chain(0, 0)
    chain = replace(job, model=sharded,
                    server=chain_server(cluster, topology, devices))
    return chain, placement


def run_cluster(job: TrainingJob, cluster: Cluster,
                config: Optional[ClusterConfig] = None,
                system: str = "mpress") -> ClusterResult:
    """Run a TP x DP x PP job over a cluster: place it, then run it.

    ``job`` supplies the model and batch geometry; its ``server``
    field is superseded by the cluster's placement (each chain runs on
    its own carve-out).
    """
    if config is None:
        config = ClusterConfig()
    topology = cluster.topology
    pp = config.stages(topology.n_gpus)
    placement = cluster_placement(topology, config.tp, config.dp, pp,
                                  mode=config.placement_mode)
    return run_placed(job, cluster, config, placement, system)


def run_placed(job: TrainingJob, cluster: Cluster, config: ClusterConfig,
               placement: ClusterPlacement, system: str) -> ClusterResult:
    """Run every chain of ``placement``, then both sync planes.

    Weak scaling: every replica processes ``samples_per_minibatch``
    samples.  Congruent chains simulate once (see the memo above).
    """
    from repro.core.mpress import run_system

    topology = cluster.topology
    sharded = tp_shard_model(job.model, placement.tp,
                             config.sequence_parallel)
    reserve = 2 * config.bucket_bytes if placement.dp > 1 else 0
    memo = _SHARED_CHAIN_MEMO if _SHARED_CHAIN_MEMO is not None else {}
    chains: List[List] = []
    for replica_devices in placement.chains:
        replica_chains = []
        for devices in replica_devices:
            chain_job = replace(job, model=sharded,
                                server=chain_server(cluster, topology, devices))
            key = _chain_memo_key(chain_job, system, reserve)
            result = memo.get(key)
            if result is None:
                result = run_system(chain_job, system, reserve_bytes=reserve)
                memo[key] = result
            replica_chains.append(result)
        chains.append(replica_chains)
    representative = chains[0][0]
    tp_sync = tp_sync_plane(placement, topology, job, config,
                            representative.job)
    dp_sync = dp_sync_plane(placement, topology, job, config,
                            cluster.as_server(), representative.job,
                            representative.plan.device_of)
    return ClusterResult(job=job, cluster=cluster, config=config,
                         system=system, placement=placement, chains=chains,
                         stage_allreduce=dp_sync, tp_sync=tp_sync)

"""Intra- and inter-server parallelism beyond the pipeline.

Replica placement over the topology, per-replica sub-servers, DDP
gradient bucketing with backward overlap, the ``run_hybrid`` entry
point that composes replicas (each a full memory-managed pipeline)
with topology-aware all-reduce from :mod:`repro.collectives`, and —
one level up — Megatron-style tensor parallelism plus the
``run_cluster`` TP x DP x PP composition over a multi-server
:class:`~repro.hardware.cluster.Cluster`.
"""

from repro.parallel.bucketing import (
    GradientBucket,
    exposed_allreduce_time,
    gradient_buckets,
)
from repro.parallel.hybrid import HybridConfig, HybridResult, run_hybrid
from repro.parallel.placement import (
    PLACEMENT_MODES,
    ReplicaPlacement,
    replica_placement,
    sub_server,
)
from repro.parallel.sync import (
    COLLECTIVE_MODES,
    StageAllReduce,
    SyncPricing,
    dp_sync_plane,
    price_sync_planes,
    tp_sync_plane,
)
from repro.parallel.tensor import TPLayerSpec, tp_shard_model, tp_sync_time
from repro.parallel.cluster import (
    CLUSTER_PLACEMENT_MODES,
    ClusterConfig,
    ClusterPlacement,
    ClusterResult,
    StageTPSync,
    chain_server,
    cluster_placement,
    run_cluster,
    shared_chain_memo,
)

__all__ = [
    "GradientBucket",
    "exposed_allreduce_time",
    "gradient_buckets",
    "COLLECTIVE_MODES",
    "HybridConfig",
    "HybridResult",
    "StageAllReduce",
    "run_hybrid",
    "PLACEMENT_MODES",
    "ReplicaPlacement",
    "replica_placement",
    "sub_server",
    "TPLayerSpec",
    "tp_shard_model",
    "tp_sync_time",
    "SyncPricing",
    "dp_sync_plane",
    "price_sync_planes",
    "tp_sync_plane",
    "CLUSTER_PLACEMENT_MODES",
    "ClusterConfig",
    "ClusterPlacement",
    "ClusterResult",
    "StageTPSync",
    "chain_server",
    "cluster_placement",
    "run_cluster",
    "shared_chain_memo",
]

"""Intra- and inter-server parallelism beyond the pipeline.

Megatron-style tensor parallelism, DDP gradient bucketing with
backward overlap, and one execution path for the TP x DP x PP cube:
a :class:`ClusterPlacement` (``cluster_placement`` over a multi-server
:class:`~repro.hardware.cluster.Cluster`, or ``replica_placement``'s
tp=1 layout of one server) handed to ``run_placed``, which runs every
pipeline chain through the memory-managed system facade and layers
both synchronisation planes on top.  ``run_cluster`` and
``run_hybrid`` are those two placements followed by ``run_placed``.
"""

from repro.parallel.bucketing import (
    GradientBucket,
    exposed_allreduce_time,
    gradient_buckets,
)
from repro.parallel.hybrid import HybridConfig, run_hybrid
from repro.parallel.placement import (
    PLACEMENT_MODES,
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
    run_placed,
    shared_chain_memo,
)

__all__ = [
    "GradientBucket",
    "exposed_allreduce_time",
    "gradient_buckets",
    "COLLECTIVE_MODES",
    "HybridConfig",
    "StageAllReduce",
    "run_hybrid",
    "PLACEMENT_MODES",
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
    "run_placed",
    "shared_chain_memo",
]

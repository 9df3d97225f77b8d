"""Named task grids for the paper's sweep-shaped experiments.

One definition per figure, shared by the CLI (``repro sweep --preset
fig9``) and the benchmark suite, so the grid a benchmark asserts on
is exactly the grid a user can run — and both hit the same cache
entries.  The DP, shape and KV-policy grids are built by
:func:`dp_grid_tasks`, :func:`shape_grid_tasks` and
:func:`kv_grid_tasks`, which the matching :mod:`repro.analysis`
sweeps call too; a preset and a sweep differ only in their label
prefix.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.core.planner import PlannerConfig
from repro.hardware.cluster import Cluster, dgx1_cluster
from repro.hardware.server import Server, dgx1_server, dgx2_server
from repro.inference.workload import KV_MODES, InferenceConfig
from repro.job import TrainingJob, dapple_job, pipedream_job
from repro.models import bert_variant, gpt_variant
from repro.parallel.cluster import ClusterConfig
from repro.parallel.hybrid import HybridConfig
from repro.runtime.task import SimTask

FIG7_SIZES = (0.35, 0.64, 1.67, 4.0, 6.2)
FIG7_SYSTEMS = ("none", "recomputation", "gpu-cpu-swap", "d2d-only", "mpress")

FIG8_SIZES = (5.3, 10.3, 15.4, 20.4, 25.5)
FIG8_COLUMNS = ("none", "recomputation", "zero-offload", "zero-infinity",
                "mpress")

# Figure 9 ablation: the four planner variants, normalized to default.
FIG9_VARIANTS: Dict[str, PlannerConfig] = {
    "default": PlannerConfig(mapping_mode="identity", striping=False),
    "+dev-mapping": PlannerConfig(mapping_mode="auto", striping=False),
    "+striping": PlannerConfig(mapping_mode="identity", striping=True),
    "+both": PlannerConfig(mapping_mode="auto", striping=True),
}


def fig7_tasks(server: Server = None) -> List[SimTask]:
    """Figure 7 grid: Bert sizes x memory-saving systems (PipeDream)."""
    server = server if server is not None else dgx1_server()
    tasks = []
    for billions in FIG7_SIZES:
        job = pipedream_job(bert_variant(billions), server)
        for system in FIG7_SYSTEMS:
            tasks.append(SimTask(
                label=f"fig7/bert-{billions}/{system}",
                job=job,
                system=system,
            ))
    return tasks


def fig8_tasks(server: Server = None) -> List[SimTask]:
    """Figure 8 grid: GPT sizes x systems incl. ZeRO (DAPPLE)."""
    server = server if server is not None else dgx1_server()
    tasks = []
    for billions in FIG8_SIZES:
        job = dapple_job(gpt_variant(billions), server)
        for system in FIG8_COLUMNS:
            tasks.append(SimTask(
                label=f"fig8/{server.name}/gpt-{billions}/{system}",
                job=job,
                system=system,
            ))
    return tasks


def fig9_tasks(servers=None) -> List[SimTask]:
    """Figure 9 ablation grid: GPT-15.4B x planner variants x servers."""
    if servers is None:
        servers = (dgx1_server(), dgx2_server())
    tasks = []
    for server in servers:
        job = dapple_job(gpt_variant(15.4), server)
        for name, config in FIG9_VARIANTS.items():
            tasks.append(SimTask(
                label=f"fig9/{server.name}/{name}",
                job=job,
                system="mpress",
                config=config,
            ))
    return tasks


# Hybrid DP x PP scaling grid: replica counts on one server.
DP_GRID = (1, 2, 4)
DP_SYSTEM = "recomputation"


def dp_grid_tasks(prefix: str, job: TrainingJob,
                  dp_grid: Sequence[int] = DP_GRID,
                  system: str = DP_SYSTEM, **knobs) -> List[SimTask]:
    """One hybrid task per replica count, labelled ``{prefix}/dp={dp}``.

    ``knobs`` are further :class:`HybridConfig` fields.
    """
    return [SimTask(label=f"{prefix}/dp={dp}", job=job, system=system,
                    hybrid=HybridConfig(dp=dp, **knobs))
            for dp in dp_grid]


def hybrid_tasks(server: Server = None, billions: float = 0.35) -> List[SimTask]:
    """DP-scaling grid: Bert x replica counts (PipeDream, per-replica)."""
    server = server if server is not None else dgx1_server()
    return dp_grid_tasks(f"hybrid/{server.name}/bert-{billions}",
                         pipedream_job(bert_variant(billions), server))


# 3D-parallelism grid: TP x DP shapes on a 2-server DGX-1 cluster, the
# pipeline depth filling the remainder of each block.
CLUSTER_SHAPES = ((1, 2, 4), (2, 2, 2), (2, 4, 2), (4, 2, 2))


def shape_grid_tasks(prefix: str, job: TrainingJob, cluster: Cluster,
                     shapes: Sequence[Tuple[int, int, int]] = CLUSTER_SHAPES,
                     system: str = "mpress", **knobs) -> List[SimTask]:
    """One cluster task per (tp, dp, pp) shape, labelled
    ``{prefix}/tp={tp},dp={dp},pp={pp}``.

    ``knobs`` are further :class:`ClusterConfig` fields.
    """
    return [SimTask(label=f"{prefix}/tp={tp},dp={dp},pp={pp}", job=job,
                    system=system, cluster=cluster,
                    cluster_config=ClusterConfig(tp=tp, dp=dp, pp=pp,
                                                 **knobs))
            for tp, dp, pp in shapes]


def cluster_tasks(cluster: Cluster = None,
                  billions: float = 5.3) -> List[SimTask]:
    """TP x DP x PP grid over a cluster (DAPPLE per chain)."""
    cluster = cluster if cluster is not None else dgx1_cluster(2)
    job = dapple_job(gpt_variant(billions), cluster.servers[0],
                     n_minibatches=2)
    return shape_grid_tasks(f"cluster/{cluster.name}/gpt-{billions}", job,
                            cluster)


# Serving grid: one workload under every KV overflow policy (KV_MODES).
def kv_grid_tasks(prefix: str, job: TrainingJob, config: InferenceConfig,
                  kv_modes: Sequence[str] = KV_MODES,
                  system: str = "mpress") -> List[SimTask]:
    """One serving task per KV policy, labelled ``{prefix}/kv={mode}``."""
    return [SimTask(label=f"{prefix}/kv={mode}", job=job, system=system,
                    inference=dataclasses.replace(config, kv_swap=mode))
            for mode in kv_modes]


def serving_tasks(server: Server = None, billions: float = 5.3) -> List[SimTask]:
    """Serving grid: GPT x KV policies under a tight KV pool.

    The pool is capped well below the workload's KV footprint so
    every policy actually exercises its overflow path.
    """
    server = server if server is not None else dgx1_server()
    config = InferenceConfig(seed=3, n_requests=10, arrival_rate=32.0,
                             prompt_mean=128, prompt_max=256,
                             output_mean=24, output_max=64,
                             max_batch=6, kv_pool_mib=199)
    return kv_grid_tasks(f"serving/{server.name}/gpt-{billions}",
                         dapple_job(gpt_variant(billions), server), config)


PRESETS = {
    "fig7": lambda: fig7_tasks(),
    "fig8-dgx1": lambda: fig8_tasks(dgx1_server()),
    "fig8-dgx2": lambda: fig8_tasks(dgx2_server()),
    "fig9": lambda: fig9_tasks(),
    "hybrid-dgx1": lambda: hybrid_tasks(dgx1_server()),
    "cluster-2xdgx1": lambda: cluster_tasks(dgx1_cluster(2)),
    "serving-dgx1": lambda: serving_tasks(dgx1_server()),
}


def preset_tasks(name: str) -> List[SimTask]:
    """Expand one named grid (CLI ``--preset``)."""
    from repro.errors import ConfigurationError

    builder = PRESETS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown sweep preset {name!r}; options: {sorted(PRESETS)}"
        )
    return builder()

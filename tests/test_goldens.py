"""Golden-trace regression suite.

Each golden pins the *complete* record of one canonical DGX-scale
configuration — metrics at full float precision, the memory-saving
plan payload, and the SHA-256 digest of the chrome-trace lowering —
so any semantic drift in the partitioner, planner, engine, fault
injector, or trace writer fails loudly here before it silently
shifts a paper figure.

The configs span DGX-1/DGX-2 x PipeDream/DAPPLE x with/without
faults, sized so the whole suite re-simulates in a few seconds.

Refresh after an *intentional* semantic change with::

    pytest tests/test_goldens.py --update-goldens

and review the diff like any other code change.  Bump
``repro.runtime.task.RUNTIME_CACHE_SALT`` in the same commit so
stale cache entries are invalidated too (docs/runtime.md).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faults.spec import random_schedule
from repro.hardware.server import dgx1_server, dgx2_server
from repro.job import dapple_job, pipedream_job
from repro.models import bert_variant, gpt_variant
from repro.runtime.task import SimTask, execute_task

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

_SERVERS = {"dgx1": dgx1_server, "dgx2": dgx2_server}
_BUILDERS = {"pipedream": pipedream_job, "dapple": dapple_job}
_MODELS = {"bert": bert_variant, "gpt": gpt_variant}

# name -> (family, billions, server, pipeline, system, n_minibatches,
#          fault seed or None, fault horizon)
GOLDENS = {
    "dgx1-pipedream-bert064-recomp": ("bert", 0.64, "dgx1", "pipedream",
                                      "recomputation", 6, None, 0.0),
    "dgx1-pipedream-bert064-recomp-faults": ("bert", 0.64, "dgx1",
                                             "pipedream", "recomputation",
                                             6, 7, 1.0),
    "dgx1-dapple-gpt53-recomp": ("gpt", 5.3, "dgx1", "dapple",
                                 "recomputation", 2, None, 0.0),
    "dgx2-dapple-gpt53-recomp": ("gpt", 5.3, "dgx2", "dapple",
                                 "recomputation", 2, None, 0.0),
    "dgx2-dapple-gpt53-recomp-faults": ("gpt", 5.3, "dgx2", "dapple",
                                        "recomputation", 2, 11, 2.0),
    "dgx2-pipedream-bert064-recomp-faults": ("bert", 0.64, "dgx2",
                                             "pipedream", "recomputation",
                                             6, 3, 1.0),
    "dgx1-pipedream-bert035-none": ("bert", 0.35, "dgx1", "pipedream",
                                    "none", 6, None, 0.0),
}


def golden_task(name: str) -> SimTask:
    family, billions, server_name, pipeline, system, nmb, seed, horizon = \
        GOLDENS[name]
    server = _SERVERS[server_name]()
    job = _BUILDERS[pipeline](_MODELS[family](billions), server,
                              n_minibatches=nmb)
    faults = None
    if seed is not None:
        faults = random_schedule(seed=seed, n_devices=server.n_gpus,
                                 horizon=horizon)
    return SimTask(label=f"golden/{name}", job=job, system=system,
                   faults=faults)


# name -> (family, billions, server, pipeline, system, n_minibatches, dp)
HYBRID_GOLDENS = {
    "dgx1-pipedream-bert035-recomp-dp2": ("bert", 0.35, "dgx1", "pipedream",
                                          "recomputation", 6, 2),
    "dgx2-dapple-gpt53-recomp-dp2": ("gpt", 5.3, "dgx2", "dapple",
                                     "recomputation", 2, 2),
    # dp=4 on the cube-mesh picks the strided layout (0,4) (1,5) ...
    "dgx1-pipedream-bert035-recomp-dp4": ("bert", 0.35, "dgx1", "pipedream",
                                          "recomputation", 6, 4),
}


def hybrid_golden_task(name: str) -> SimTask:
    from repro.parallel.hybrid import HybridConfig

    family, billions, server_name, pipeline, system, nmb, dp = \
        HYBRID_GOLDENS[name]
    server = _SERVERS[server_name]()
    job = _BUILDERS[pipeline](_MODELS[family](billions), server,
                              n_minibatches=nmb)
    return SimTask(label=f"golden/{name}", job=job, system=system,
                   hybrid=HybridConfig(dp=dp))


# name -> (family, billions, n_servers, system, n_minibatches, tp, dp, pp)
CLUSTER_GOLDENS = {
    "2xdgx1-dapple-gpt53-mpress-tp2-dp2-pp2": ("gpt", 5.3, 2, "mpress",
                                               2, 2, 2, 2),
}


def cluster_golden_task(name: str) -> SimTask:
    from repro.hardware.cluster import dgx1_cluster
    from repro.parallel.cluster import ClusterConfig

    family, billions, n_servers, system, nmb, tp, dp, pp = \
        CLUSTER_GOLDENS[name]
    cluster = dgx1_cluster(n_servers)
    job = dapple_job(_MODELS[family](billions), cluster.servers[0],
                     n_minibatches=nmb)
    return SimTask(label=f"golden/{name}", job=job, system=system,
                   cluster=cluster,
                   cluster_config=ClusterConfig(tp=tp, dp=dp, pp=pp))


# name -> (family, billions, server, kv_swap)
INFERENCE_GOLDENS = {
    "dgx1-serving-gpt53-d2d": ("gpt", 5.3, "dgx1", "d2d"),
}


def inference_golden_task(name: str) -> SimTask:
    from repro.inference import InferenceConfig

    family, billions, server_name, kv_swap = INFERENCE_GOLDENS[name]
    server = _SERVERS[server_name]()
    job = dapple_job(_MODELS[family](billions), server)
    # Tight KV pool so the golden pins the swap path, not just batching.
    return SimTask(label=f"golden/{name}", job=job, system="mpress",
                   inference=InferenceConfig(
                       seed=3, n_requests=10, arrival_rate=32.0,
                       prompt_mean=128, prompt_max=256,
                       output_mean=24, output_max=64,
                       max_batch=6, kv_swap=kv_swap, kv_pool_mib=199))


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name, update_goldens):
    record = execute_task(golden_task(name))
    assert record["ok"], f"golden config {name} must simulate cleanly"
    path = golden_path(name)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"name": name, "record": record}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest --update-goldens"
    )
    with open(path) as handle:
        golden = json.load(handle)
    assert record == golden["record"], (
        f"golden {name} drifted; if the semantic change is intentional, "
        f"refresh with --update-goldens and bump RUNTIME_CACHE_SALT"
    )


@pytest.mark.parametrize("name", sorted(HYBRID_GOLDENS))
def test_hybrid_golden(name, update_goldens):
    """Hybrid DP x PP records pin placement, bucketing, and the
    per-stage all-reduce schedule alongside the usual metrics."""
    record = execute_task(hybrid_golden_task(name))
    assert record["ok"], f"hybrid golden {name} must simulate cleanly"
    assert record["hybrid"]["dp"] == HYBRID_GOLDENS[name][6]
    path = golden_path(name)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"name": name, "record": record}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest --update-goldens"
    )
    with open(path) as handle:
        golden = json.load(handle)
    assert record == golden["record"], (
        f"golden {name} drifted; if the semantic change is intentional, "
        f"refresh with --update-goldens and bump RUNTIME_CACHE_SALT"
    )


@pytest.mark.parametrize("name", sorted(CLUSTER_GOLDENS))
def test_cluster_golden(name, update_goldens):
    """Cluster TP x DP x PP records pin the placement, both sync
    planes, and every chain's trace digest."""
    record = execute_task(cluster_golden_task(name))
    assert record["ok"], f"cluster golden {name} must simulate cleanly"
    assert record["cluster"]["tp"] == CLUSTER_GOLDENS[name][5]
    path = golden_path(name)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"name": name, "record": record}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest --update-goldens"
    )
    with open(path) as handle:
        golden = json.load(handle)
    assert record == golden["record"], (
        f"golden {name} drifted; if the semantic change is intentional, "
        f"refresh with --update-goldens and bump RUNTIME_CACHE_SALT"
    )


@pytest.mark.parametrize("name", sorted(INFERENCE_GOLDENS))
def test_inference_golden(name, update_goldens):
    """Serving records pin TTFT/TPOT percentiles, spill volume, and the
    trace digest of the lowered continuous-batching program."""
    record = execute_task(inference_golden_task(name))
    assert record["ok"], f"inference golden {name} must simulate cleanly"
    assert record["inference"]["kv_swap"] == INFERENCE_GOLDENS[name][3]
    assert record["inference"]["swapped_bytes"] > 0
    path = golden_path(name)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"name": name, "record": record}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest --update-goldens"
    )
    with open(path) as handle:
        golden = json.load(handle)
    assert record == golden["record"], (
        f"golden {name} drifted; if the semantic change is intentional, "
        f"refresh with --update-goldens and bump RUNTIME_CACHE_SALT"
    )


def test_resimulation_is_bit_identical():
    """Two executions of the same task agree to the last byte."""
    task = golden_task("dgx1-pipedream-bert064-recomp-faults")
    first = execute_task(task)
    second = execute_task(task)
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert first["trace_digest"] == second["trace_digest"]


def test_goldens_cover_the_matrix():
    """The suite spans both servers, both pipelines, and fault states."""
    rows = GOLDENS.values()
    assert {row[2] for row in rows} == {"dgx1", "dgx2"}
    assert {row[3] for row in rows} == {"pipedream", "dapple"}
    assert any(row[6] is not None for row in rows)
    assert any(row[6] is None for row in rows)

"""Pinned cache-key corpus: content addresses must never drift silently.

Every shape of :class:`SimTask` — plain, planner-config, faulted,
hybrid, cluster, ZeRO, spec-built — is pinned to its exact cache key
in ``tests/goldens/cache_keys.json``.  A key change means previously
cached results are orphaned and shared multi-tenant caches (the sweep
server's store, CI's roundtrip cache) silently go cold, so it must be
deliberate: bump ``RUNTIME_CACHE_SALT``, regenerate with
``pytest --update-goldens``, and say so in the changelog.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.autoplan import AutoPlanConfig
from repro.core.planner import PlannerConfig
from repro.faults.spec import random_schedule
from repro.inference import InferenceConfig
from repro.hardware.cluster import dgx1_cluster
from repro.hardware.server import dgx1_server, dgx2_server
from repro.job import dapple_job, pipedream_job
from repro.jobspec import task_from_spec
from repro.models import bert_variant, gpt_variant
from repro.parallel.cluster import ClusterConfig
from repro.parallel.hybrid import HybridConfig
from repro.runtime.task import SimTask

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "cache_keys.json")


def corpus():
    """One representative task per shape, in a stable order."""
    tasks = {}
    tasks["plain/bert-0.35/dgx1/mpress"] = SimTask(
        label="corpus", job=pipedream_job(bert_variant(0.35), dgx1_server()),
        system="mpress")
    tasks["plain/gpt-5.3/dgx1/recomputation"] = SimTask(
        label="corpus", job=dapple_job(gpt_variant(5.3), dgx1_server()),
        system="recomputation")
    tasks["config/gpt-15.4/dgx2/striping"] = SimTask(
        label="corpus", job=dapple_job(gpt_variant(15.4), dgx2_server()),
        system="mpress",
        config=PlannerConfig(mapping_mode="auto", striping=True))
    tasks["faulted/bert-0.64/dgx1/seed42"] = SimTask(
        label="corpus", job=pipedream_job(bert_variant(0.64), dgx1_server()),
        system="recomputation",
        faults=random_schedule(seed=42, n_devices=8, horizon=60.0))
    tasks["hybrid/bert-0.35/dgx1/dp2"] = SimTask(
        label="corpus", job=pipedream_job(bert_variant(0.35), dgx1_server()),
        system="recomputation", hybrid=HybridConfig(dp=2))
    tasks["cluster/gpt-5.3/2xdgx1/tp2dp2pp2"] = SimTask(
        label="corpus",
        job=dapple_job(gpt_variant(5.3), dgx1_server(), n_minibatches=2),
        system="mpress", cluster=dgx1_cluster(2),
        cluster_config=ClusterConfig(tp=2, dp=2, pp=2))
    tasks["zero/gpt-25.5/dgx2/infinity"] = SimTask(
        label="corpus", job=dapple_job(gpt_variant(25.5), dgx2_server()),
        system="zero-infinity")
    tasks["spec/bert-0.35/dgx1/none"] = task_from_spec(
        {"model": "bert-0.35", "server": "dgx1", "system": "none"})
    tasks["autoplan/gpt-5.3/2xdgx1/default"] = SimTask(
        label="corpus",
        job=dapple_job(gpt_variant(5.3), dgx1_server(), n_minibatches=2),
        system="mpress", cluster=dgx1_cluster(2), autoplan=AutoPlanConfig())
    tasks["autoplan/gpt-5.3/2xdgx1/budget12"] = SimTask(
        label="corpus",
        job=dapple_job(gpt_variant(5.3), dgx1_server(), n_minibatches=2),
        system="mpress", cluster=dgx1_cluster(2),
        autoplan=AutoPlanConfig(budget_gib=12.0, max_frontier=4))
    tasks["spec/gpt-5.3/2xdgx1/shape-auto"] = task_from_spec(
        {"model": "gpt-5.3", "server": "dgx1", "nodes": 2, "shape": "auto",
         "budget_gib": 16, "n_minibatches": 2})
    tasks["inference/gpt-5.3/dgx1/d2d"] = SimTask(
        label="corpus", job=dapple_job(gpt_variant(5.3), dgx1_server()),
        system="mpress",
        inference=InferenceConfig(n_requests=10, kv_swap="d2d",
                                  kv_pool_mib=199))
    tasks["spec/gpt-5.3/dgx1/inference-pcie"] = task_from_spec(
        {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
         "inference": {"n_requests": 8, "kv_swap": "pcie"}})
    return tasks


def test_corpus_keys_are_pinned(update_goldens):
    keys = {name: task.cache_key() for name, task in corpus().items()}
    if update_goldens:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as handle:
            json.dump(keys, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip("regenerated cache-key corpus")
    with open(GOLDEN) as handle:
        pinned = json.load(handle)
    assert keys == pinned, (
        "cache keys drifted from tests/goldens/cache_keys.json — this "
        "orphans every shared cache; if intended, bump "
        "RUNTIME_CACHE_SALT and regenerate with --update-goldens"
    )


def test_corpus_covers_every_task_shape():
    """Every row of the kind table has a pinned key."""
    from repro.runtime.task import _KINDS

    tasks = corpus().values()
    assert {t.kind for t in tasks} == {kind.name for kind in _KINDS}
    # Train tasks under a planner config and under a fault campaign.
    assert any(t.config is not None for t in tasks)
    assert any(t.faults is not None for t in tasks)


def test_corpus_keys_are_distinct():
    keys = [task.cache_key() for task in corpus().values()]
    assert len(set(keys)) == len(keys)


def test_label_is_cosmetic():
    spec = {"model": "bert-0.35", "server": "dgx1", "system": "none"}
    renamed = task_from_spec(dict(spec, label="other"))
    assert renamed.cache_key() == task_from_spec(spec).cache_key()

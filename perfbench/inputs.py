"""Seeded inputs: the serving trace and the sweep-service job mix.

The benchmark makes every input from ``--seed`` and hands the program
only the result, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

# serve-sim-dgx1: Poisson arrivals below the modelled capacity of
# GPT-5.3B on DGX-1 (~150 output tokens/s at 32 tokens a request), a
# KV pool tight enough that blocks spill over NVLink.
SERVING = {
    "n_requests": 800,
    "rate": 3.5,              # requests per simulated second
    "prompt": (128, 48, 16, 256),   # mean, sd, min, max tokens
    "output": (32, 12, 4, 96),
    "kv_swap": "d2d",
    "kv_pool_mib": 256,
    "max_batch": 8,
}


def _clamped(rng: random.Random, mean: int, sd: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(round(rng.gauss(mean, sd)))))


def serving_trace(seed: int) -> List[Tuple[float, int, int]]:
    """(arrival_s, prompt_tokens, output_tokens) per request."""
    rng = random.Random(f"serve-sim/{seed}")
    now = 0.0
    trace = []
    for _ in range(SERVING["n_requests"]):
        now += rng.expovariate(SERVING["rate"])
        trace.append((round(now, 6), _clamped(rng, *SERVING["prompt"]),
                      _clamped(rng, *SERVING["output"])))
    return trace


def serving_inputs(seed: int) -> Dict:
    return {"trace": serving_trace(seed), "kv_swap": SERVING["kv_swap"],
            "kv_pool_mib": SERVING["kv_pool_mib"],
            "max_batch": SERVING["max_batch"]}


# sweep-service: task kinds in a fixed order (one deck per twelve
# fresh tasks), so every seed gives the same cost mix.  The
# auto-shape search costs ~1.4 s cold against 0.05-0.3 s for the
# rest, hence one card in twelve.
# Distinct keys come from fault seeds, inference seeds, cluster
# shapes and auto-shape budgets.  Shapes and budgets differ most in
# cost, so each tenant walks its own share of them in a fixed order;
# the seed draws the fault and inference seeds.
_BERT = {"model": "bert-0.35", "server": "dgx1"}
_DECK = ("faults-none", "faults-none", "faults-none", "faults-recompute",
         "faults-recompute", "faults-swap", "faults-swap", "infer-d2d",
         "infer-d2d", "infer-pcie", "cluster", "auto")
_CLUSTER_SHAPES = [
    {"nodes": 2, "fabric": fabric, "tp": tp, "dp": dp, "pp": pp,
     "sequence_parallel": sp}
    for fabric in ("ib-edr", "ib-hdr", "eth-100g")
    for tp, dp, pp, sp in ((1, 2, 8, False), (2, 2, 4, False), (1, 4, 4, False),
                           (2, 4, 2, False), (2, 2, 4, True), (2, 4, 2, True))
] + [
    # One box: the fabric plays no part, so it is not varied.
    {"nodes": 1, "tp": tp, "dp": dp, "pp": pp, "sequence_parallel": sp}
    for tp, dp, pp, sp in ((2, 1, 4, False), (1, 2, 4, False), (2, 1, 4, True))
]
_AUTO_BUDGETS = [round(8.0 + 0.25 * i, 2) for i in range(64)]
REPEAT_EVERY = 4      # every 4th job of a tenant repeats an earlier key
TENANTS = 2
# More jobs than a run can finish; the run's deadline ends the loop.
JOBS_PER_TENANT = 100


def _fresh(kind: str, rng: random.Random, used: set, walks: Dict) -> Dict:
    for _ in range(1000):
        if kind in walks:
            spec = dict(_BERT, system="none", **next(walks[kind]))
        elif kind.startswith("faults-"):
            system = {"none": "none", "recompute": "recomputation",
                      "swap": "gpu-cpu-swap"}[kind[7:]]
            spec = dict(_BERT, system=system,
                        faults_seed=rng.randrange(1, 10 ** 6))
        elif kind.startswith("infer-"):
            spec = {"model": "gpt-5.3", "server": "dgx1",
                    "workload": "inference",
                    "inference": {"n_requests": 16, "kv_swap": kind[6:],
                                  "seed": rng.randrange(1, 10 ** 6)}}
        else:
            raise ValueError(f"unknown task kind {kind!r}")
        key = canonical(spec)
        if key not in used:
            used.add(key)
            return spec
    raise ValueError(f"no fresh {kind!r} task left")


def canonical(spec: Dict) -> str:
    return json.dumps(spec, sort_keys=True)


def service_mix(seed: int) -> List[List[Dict]]:
    """Per tenant, its job sequence (one task spec per job).

    The order of task kinds is fixed (tenant ``t`` walks ``_DECK``
    from card ``6 t``), so the cost profile of the jobs a run gets
    through does not depend on the seed; the seed picks the fault and
    inference seeds.  Tenants draw fresh keys from disjoint sets; every
    ``REPEAT_EVERY``-th job repeats one of the tenant's own earlier
    keys, which a closed loop has already completed, so it is a cache
    hit.
    """
    rng = random.Random(f"sweep-service/{seed}")
    used: set = set()
    plans = []
    for tenant in range(TENANTS):
        fresh: List[Dict] = []
        jobs: List[Dict] = []
        walks = {
            "cluster": iter(_CLUSTER_SHAPES[tenant::TENANTS]),
            "auto": iter({"shape": "auto", "budget_gib": budget}
                         for budget in _AUTO_BUDGETS[tenant::TENANTS]),
        }
        for index in range(JOBS_PER_TENANT):
            if index % REPEAT_EVERY == REPEAT_EVERY - 1:
                jobs.append(rng.choice(fresh))
                continue
            kind = _DECK[(len(fresh) + 6 * tenant) % len(_DECK)]
            spec = _fresh(kind, rng, used, walks)
            fresh.append(spec)
            jobs.append(spec)
        plans.append(jobs)
    return plans


def warmup_specs() -> List[Dict]:
    """One task of each kind, outside every seeded mix (fixed seeds
    and shapes no mix draws), to load the worker's lazy imports."""
    return [
        dict(_BERT, system="none", faults_seed=0),
        dict(_BERT, system="recomputation", faults_seed=0),
        dict(_BERT, system="gpu-cpu-swap", faults_seed=0),
        {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
         "inference": {"n_requests": 16, "kv_swap": "d2d", "seed": 0}},
        {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
         "inference": {"n_requests": 16, "kv_swap": "pcie", "seed": 0}},
        dict(_BERT, system="none", nodes=2, tp=1, dp=8, pp=2),
        dict(_BERT, system="none", shape="auto", budget_gib=7.0),
    ]

"""The serving matrix, pinned episode by episode.

Every KV overflow policy (d2d/pcie/none) at one and two pipeline
stages, with and without a shared prefix, plus a preemption-heavy
recompute case and a two-stage swap-heavy case, each pinned to the
last byte: the trace digest, ``metrics.to_json()``, the iteration
count, every swap decision, every request's completion, and the
episode's FLOP total.  The d2d-without-spare-GPUs refusal, the
livelock that takes precedence over it, and a recompute episode that
repeats itself are pinned by type and message.  Each episode must also pass
:func:`~repro.sim.audit.audit_simulation` without violations.

Refresh after an *intentional* semantic change with::

    pytest tests/test_inference_matrix.py --update-goldens
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hardware.server import dgx1_server
from repro.inference import InferenceConfig, run_serving
from repro.models import gpt_variant
from repro.runtime.task import trace_digest
from repro.sim.audit import audit_simulation

MODEL = gpt_variant(5.3)
SERVER = dgx1_server()
GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "serving-matrix.json")

# ~25 blocks of GPT-5.3B KV per stage at pp=1; the pool is divided by
# pp so two-stage episodes spill too.
SPILL = InferenceConfig(
    seed=3, n_requests=10, arrival_rate=32.0,
    prompt_mean=128, prompt_max=256,
    output_mean=24, output_max=64,
    max_batch=6, kv_pool_mib=199,
)


def _matrix():
    cases = {}
    for mode in ("d2d", "pcie", "none"):
        for pp in (1, 2):
            config = dataclasses.replace(SPILL, kv_swap=mode, pp=pp,
                                         kv_pool_mib=199 // pp)
            cases[f"{mode}-pp{pp}-plain"] = config
            cases[f"{mode}-pp{pp}-prefix"] = dataclasses.replace(
                config, shared_prefix_tokens=64, shared_prefix_fraction=0.5)
    cases["none-pp1-preempt"] = dataclasses.replace(
        SPILL, kv_swap="none", seed=5, n_requests=24, max_batch=8)
    cases["d2d-pp2-heavy"] = dataclasses.replace(
        SPILL, seed=5, n_requests=24, max_batch=8, pp=2, kv_pool_mib=99)
    return cases


CASES = _matrix()
# Every GPU of the DGX-1 hosts a stage, so a spilling d2d episode has
# nowhere to stripe its KV; an episode that livelocks first reports
# the livelock instead.  Under recompute the same workload has a
# request that preempts itself, re-prefills and fails again at the
# same point forever; the repeat is a livelock too.
LIVELOCK = InferenceConfig(
    seed=3, n_requests=12, arrival_rate=64.0,
    prompt_mean=256, prompt_max=512, output_mean=64, output_max=128,
    max_batch=6, pp=8, kv_pool_mib=40,
    shared_prefix_tokens=256, shared_prefix_fraction=0.8)
ERRORS = {
    "d2d-pp8-no-spares": dataclasses.replace(SPILL, pp=8, kv_pool_mib=20),
    "d2d-pp8-livelock": LIVELOCK,
    "none-pp8-livelock": dataclasses.replace(LIVELOCK, kv_swap="none"),
}


def _record(config: InferenceConfig) -> dict:
    outcome = run_serving(MODEL, SERVER, config)
    assert outcome.simulation.ok
    assert audit_simulation(outcome.simulation).violations == []
    tape = outcome.tape
    return {
        "trace_digest": trace_digest(outcome.simulation.trace),
        "metrics": outcome.metrics.to_json(),
        "n_iterations": tape.n_iterations,
        "swaps": [[s.rid, s.stage, s.size, s.out_iteration, s.in_iteration]
                  for s in tape.swaps],
        "completion": {str(rid): list(span)
                       for rid, span in sorted(tape.completion.items())},
        "total_flops": tape.total_flops.hex(),
    }


def _error(config: InferenceConfig) -> dict:
    with pytest.raises((ConfigurationError, SimulationError)) as caught:
        run_serving(MODEL, SERVER, config)
    return {"type": type(caught.value).__name__, "message": str(caught.value)}


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-goldens"):
        payload = {"cases": {name: _record(c) for name, c in CASES.items()},
                   "errors": {name: _error(c) for name, c in ERRORS.items()}}
        with open(GOLDEN, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_matrix_covers_every_policy_and_both_overflow_paths(golden):
    cases = golden["cases"]
    assert sorted(cases) == sorted(CASES)
    for mode in ("d2d", "pcie"):
        for pp in (1, 2):
            assert cases[f"{mode}-pp{pp}-plain"]["swaps"], f"{mode} pp{pp} must spill"
    assert cases["none-pp1-preempt"]["metrics"]["preemptions"] > 10
    assert any(c["metrics"]["prefix_cache_hits"] for c in cases.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_episode_matches_pinned_record(name, golden):
    assert _record(CASES[name]) == golden["cases"][name]


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_refusal_matches_pinned_error(name, golden):
    assert _error(ERRORS[name]) == golden["errors"][name]

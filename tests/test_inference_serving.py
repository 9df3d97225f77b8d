"""End-to-end serving simulations: batching, swap policies, equivalence.

The headline claims pinned here:

* the reference interpreter and the fast path replay the same lowered
  serving program to byte-identical traces and metrics;
* under an identical workload and KV pool, D2D striping and PCIe host
  swap move exactly the same spill volume (the scheduler never
  consults the transport), and D2D exposes strictly less decode stall
  — the paper's bandwidth argument, on the serving side;
* the cost oracle's memoised pricing equals the per-layer formulas
  bit for bit, and an episode evaluates each distinct decode context
  once per stage rather than once per request per iteration.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.hardware.server import dgx1_server
from repro.inference import InferenceConfig, ServingCost, run_serving
from repro.inference.costing import INFERENCE_PARAM_BYTES, KV_BYTES_PER_ELEMENT
from repro.inference.lowering import build_serving_program
from repro.inference.metrics import compute_metrics
from repro.models import costs, gpt_variant
from repro.models.layers import LayerKind
from repro.runtime.task import trace_digest
from repro.sim.audit import audit_simulation
from repro.sim.interpreter import Interpreter

MODEL = gpt_variant(5.3)
SERVER = dgx1_server()

# Tight pool (~25 blocks of GPT-5.3B KV) so the workload overflows it:
# verified to force swaps on every policy without preempting to zero.
SPILL = InferenceConfig(
    seed=3, n_requests=10, arrival_rate=32.0,
    prompt_mean=128, prompt_max=256,
    output_mean=24, output_max=64,
    max_batch=6, kv_pool_mib=199,
)


def serve(config: InferenceConfig):
    return run_serving(MODEL, SERVER, config)


class TestEndToEnd:
    def test_uncontended_serving_completes_every_request(self):
        outcome = serve(InferenceConfig(seed=0, n_requests=8))
        assert outcome.simulation.ok
        metrics = outcome.metrics
        assert metrics.n_requests == 8
        assert metrics.total_output_tokens == sum(
            r.output_tokens for r in outcome.tape.requests)
        assert metrics.tokens_per_second > 0
        assert metrics.ttft_p50 <= metrics.ttft_p95 <= metrics.ttft_p99
        assert metrics.swapped_bytes == 0
        assert metrics.preemptions == 0

    def test_pipelined_serving_runs_on_two_stages(self):
        outcome = serve(InferenceConfig(seed=0, n_requests=6, pp=2))
        assert outcome.simulation.ok
        assert outcome.cost.n_stages == 2
        assert outcome.metrics.tokens_per_second > 0

    def test_prefix_sharing_saves_prompt_tokens(self):
        config = InferenceConfig(seed=1, n_requests=8,
                                 shared_prefix_tokens=64,
                                 shared_prefix_fraction=1.0)
        outcome = serve(config)
        assert outcome.metrics.prefix_cache_hits > 0
        assert outcome.metrics.prefix_saved_tokens > 0

    def test_metrics_json_round_trips(self):
        outcome = serve(InferenceConfig(seed=0, n_requests=4))
        payload = json.loads(json.dumps(outcome.metrics.to_json()))
        assert payload["kv_swap"] == "d2d"
        assert payload["n_requests"] == 4


class TestFastPathEquivalence:
    @pytest.mark.parametrize("config", [
        InferenceConfig(seed=0, n_requests=8),
        dataclasses.replace(SPILL, kv_swap="d2d"),
        dataclasses.replace(SPILL, kv_swap="pcie"),
        dataclasses.replace(SPILL, kv_swap="none"),
    ], ids=["uncontended", "spill-d2d", "spill-pcie", "spill-none"])
    def test_reference_equals_fast_path(self, config):
        program, tape, _ = build_serving_program(MODEL, SERVER, config)
        reference = Interpreter(program).run()
        fast = serve(config)
        assert reference.makespan == fast.simulation.makespan
        assert trace_digest(reference.trace) == \
            trace_digest(fast.simulation.trace)
        assert compute_metrics(reference, tape, config) == fast.metrics


class TestSwapPolicies:
    def test_d2d_beats_pcie_at_equal_spill_volume(self):
        """The crossover: same spill bytes, strictly less decode stall."""
        d2d = serve(dataclasses.replace(SPILL, kv_swap="d2d")).metrics
        pcie = serve(dataclasses.replace(SPILL, kv_swap="pcie")).metrics
        assert d2d.swapped_bytes > 0, "workload must actually spill"
        assert d2d.swapped_bytes == pcie.swapped_bytes
        assert d2d.swapped_requests == pcie.swapped_requests
        assert d2d.decode_stall_seconds < pcie.decode_stall_seconds
        assert d2d.makespan < pcie.makespan

    def test_preemption_baseline_recomputes_instead_of_swapping(self):
        none = serve(dataclasses.replace(SPILL, kv_swap="none")).metrics
        swap = serve(dataclasses.replace(SPILL, kv_swap="d2d")).metrics
        assert none.preemptions > 0
        assert none.swapped_bytes == 0
        # Re-prefilling preempted requests costs extra iterations.
        assert none.n_iterations > swap.n_iterations

    def test_same_workload_across_policies(self):
        tapes = {
            mode: serve(dataclasses.replace(SPILL, kv_swap=mode)).tape
            for mode in ("d2d", "pcie")
        }
        assert tapes["d2d"].requests == tapes["pcie"].requests
        assert tapes["d2d"].n_iterations == tapes["pcie"].n_iterations
        assert [(s.rid, s.size) for s in tapes["d2d"].swaps] == \
            [(s.rid, s.size) for s in tapes["pcie"].swaps]

    @pytest.mark.parametrize("mode", ["d2d", "pcie"])
    def test_resume_seen_by_no_compute_is_undone(self, mode):
        """A request resumed in an idle pass and victimized in the next
        pass of the same iteration goes back to the suspended queue on
        its open swap instead of being swapped out a second time."""
        config = InferenceConfig(
            seed=20, n_requests=8, arrival_rate=4.0,
            prompt_mean=256, prompt_max=512, output_mean=64, output_max=128,
            max_batch=4, kv_pool_mib=250, kv_swap=mode)
        outcome = serve(config)
        assert outcome.simulation.ok
        assert audit_simulation(outcome.simulation).violations == []
        spans = {}
        for swap in outcome.tape.swaps:
            spans.setdefault((swap.rid, swap.stage), []).append(
                (swap.out_iteration, swap.in_iteration))
        assert any(len(legs) > 1 for legs in spans.values())
        for legs in spans.values():
            for (_, back), (out, _) in zip(legs, legs[1:]):
                assert back is not None and back <= out

    def test_pool_too_small_for_one_request_is_a_config_error(self):
        config = dataclasses.replace(SPILL, kv_pool_mib=8)
        with pytest.raises(ConfigurationError):
            serve(config)


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        config = dataclasses.replace(SPILL, kv_swap="d2d")
        first = serve(config)
        second = serve(config)
        assert first.metrics == second.metrics
        assert trace_digest(first.simulation.trace) == \
            trace_digest(second.simulation.trace)


def _per_layer_flops(cost: ServingCost, stage: int, tokens: int, decode: bool) -> float:
    """One request's FLOPs on ``stage``, summed layer by layer afresh."""
    total = 0.0
    for layer in cost.plan.stage(stage).layers:
        if layer.kind is LayerKind.EMBEDDING:
            total += costs.embedding_forward_flops(cost.hidden, 1 if decode else tokens, 1)
        elif layer.kind is LayerKind.TRANSFORMER:
            total += (costs.layer_decode_flops(cost.hidden, tokens) if decode
                      else costs.layer_forward_flops(cost.hidden, tokens, 1))
        else:
            total += costs.head_forward_flops(cost.hidden, cost.vocab, 1, 1)
    return total


def _per_layer_duration(cost, stage, prefill_tokens, decode_contexts) -> float:
    """An iteration's stage time with every constant recomputed."""
    spec = cost.plan.stage(stage)
    gpu = cost.server.gpu(cost.stage_device(stage))
    flops = sum(_per_layer_flops(cost, stage, t, False) for t in prefill_tokens)
    flops += sum(_per_layer_flops(cost, stage, c, True) for c in decode_contexts)
    compute = flops / (gpu.peak_flops("fp16") * cost.config.mfu)
    transformers = sum(1 for layer in spec.layers if layer.kind is LayerKind.TRANSFORMER)
    kv_read = sum(decode_contexts) * transformers * costs.kv_cache_bytes_per_token(
        cost.hidden, KV_BYTES_PER_ELEMENT)
    hbm = (spec.params * INFERENCE_PARAM_BYTES + kv_read) / gpu.hbm_bandwidth
    return max(compute, hbm)


class TestMemoisedPricing:
    @pytest.mark.parametrize("pp", [1, 2, 4])
    def test_memoised_flops_equal_per_layer_sums(self, pp):
        cost = ServingCost(MODEL, SERVER, InferenceConfig(pp=pp))
        for stage in range(pp):
            for tokens in range(1, MODEL.config.max_positions + 1):
                for decode, priced in ((False, cost.prefill_flops),
                                       (True, cost.decode_flops)):
                    expected = _per_layer_flops(cost, stage, tokens, decode).hex()
                    assert priced(stage, tokens).hex() == expected
                    assert priced(stage, tokens).hex() == expected   # memo hit

    @pytest.mark.parametrize("pp", [1, 2, 4])
    def test_stage_duration_matches_per_layer_reference(self, pp):
        cost = ServingCost(MODEL, SERVER, InferenceConfig(pp=pp))
        batches = [((128,), ()), ((), (1,)), ((), (37, 512, 2048)),
                   ((16, 256), (129, 130, 131)), ((2048,), (2047,))]
        for stage in range(pp):
            for prefill_tokens, decode_contexts in batches:
                for _ in range(2):
                    assert cost.stage_pricing(stage).price(
                        prefill_tokens, decode_contexts)[0].hex() == \
                        _per_layer_duration(cost, stage, prefill_tokens,
                                            decode_contexts).hex()

    @pytest.mark.parametrize("tokens", [0, -3])
    def test_non_positive_tokens_raise_on_every_call(self, tokens):
        cost = ServingCost(MODEL, SERVER, InferenceConfig(pp=2))
        for priced in (cost.prefill_flops, cost.decode_flops):
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    priced(1, tokens)
        with pytest.raises(ConfigurationError):
            cost.stage_pricing(0).price((), (tokens,))

    def test_out_of_range_stage_is_a_partition_error(self):
        cost = ServingCost(MODEL, SERVER, InferenceConfig(pp=2))
        for stage in (-1, 2):
            with pytest.raises(PartitionError):
                cost.weight_bytes(stage)
            with pytest.raises(PartitionError):
                cost.decode_flops(stage, 8)

    def test_episode_prices_each_distinct_context_once_per_stage(self, monkeypatch):
        calls = []
        layer_decode_flops = costs.layer_decode_flops

        def counted(hidden, context):
            calls.append(context)
            return layer_decode_flops(hidden, context)

        monkeypatch.setattr(costs, "layer_decode_flops", counted)
        outcome = serve(dataclasses.replace(SPILL, pp=2))
        # Without preemption every request prefills once and then
        # decodes against contexts prompt, prompt + 1, ... until its
        # last token; a swap pauses a request without changing them.
        assert outcome.tape.preemptions == 0
        per_request = [range(r.prompt_tokens, r.prompt_tokens + r.output_tokens - 1)
                       for r in outcome.tape.requests]
        contexts = {context for span in per_request for context in span}
        decodes = sum(len(span) for span in per_request)
        bound = sum(len(contexts) * outcome.cost.n_transformer_layers(stage)
                    for stage in range(outcome.cost.n_stages))
        assert 0 < len(calls) <= bound
        assert len(contexts) < decodes   # the bound is below per-request work

"""Prefill/decode cost accounting derived from the training cost model.

Serving reuses the exact analytic formulas training uses
(`repro.models.costs`) but charges them per phase: a prefill is one
full-sequence forward pass over the prompt (the head only computes
the last position's logits — serving never materializes per-token
logits for the prompt), and a decode is one token's forward pass that
additionally streams the request's whole KV cache out of HBM.  Stage
iteration time is the max of the compute-bound and HBM-bound
estimates, which is what makes decode memory-bandwidth-bound at small
batch — the behaviour that motivates KV paging and swap in the first
place.

Weights are held in fp16 inference form (no gradients, no optimizer
state); everything left on the device after weights is the KV pool.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hardware.server import Server
from repro.inference.workload import InferenceConfig
from repro.models import costs
from repro.models.layers import LayerKind, ModelSpec
from repro.pipeline.partition import partition_model
from repro.units import MiB

# Inference holds fp16 weights only: 2 bytes per parameter.
INFERENCE_PARAM_BYTES = 2
KV_BYTES_PER_ELEMENT = 2


class _StagePricing:
    """One stage's constants and FLOP memos, fixed at construction.

    ``Server``, ``InferenceConfig`` and the stage plan are frozen, so
    every per-stage quantity the pricing reads is computed once.  The
    FLOP memos are filled on first use by the per-layer sums, so a
    memoised value is the value the per-layer formula returns; an
    input the formula rejects raises and stores nothing.
    """

    __slots__ = ("kinds", "hidden", "vocab", "weight_bytes",
                 "n_transformer_layers", "kv_token_bytes", "throughput",
                 "hbm_bandwidth", "_prefill", "_decode")

    def __init__(self, cost: "ServingCost", stage: int):
        spec = cost.plan.stage(stage)
        gpu = cost.server.gpu(cost.stage_device(stage))
        self.kinds = tuple(layer.kind for layer in spec.layers)
        self.hidden = cost.hidden
        self.vocab = cost.vocab
        self.weight_bytes = spec.params * INFERENCE_PARAM_BYTES
        self.n_transformer_layers = self.kinds.count(LayerKind.TRANSFORMER)
        self.kv_token_bytes = self.n_transformer_layers * costs.kv_cache_bytes_per_token(
            self.hidden, KV_BYTES_PER_ELEMENT)
        self.throughput = gpu.peak_flops("fp16") * cost.config.mfu
        self.hbm_bandwidth = gpu.hbm_bandwidth
        self._prefill: Dict[int, float] = {}
        self._decode: Dict[int, float] = {}

    def prefill_flops(self, prompt_tokens: int) -> float:
        flops = self._prefill.get(prompt_tokens)
        if flops is None:
            flops = 0.0
            for kind in self.kinds:
                if kind is LayerKind.EMBEDDING:
                    flops += costs.embedding_forward_flops(self.hidden, prompt_tokens, 1)
                elif kind is LayerKind.TRANSFORMER:
                    flops += costs.layer_forward_flops(self.hidden, prompt_tokens, 1)
                else:
                    # Only the last position's logits are needed.
                    flops += costs.head_forward_flops(self.hidden, self.vocab, 1, 1)
            self._prefill[prompt_tokens] = flops
        return flops

    def decode_flops(self, context_tokens: int) -> float:
        flops = self._decode.get(context_tokens)
        if flops is None:
            flops = 0.0
            for kind in self.kinds:
                if kind is LayerKind.EMBEDDING:
                    flops += costs.embedding_forward_flops(self.hidden, 1, 1)
                elif kind is LayerKind.TRANSFORMER:
                    flops += costs.layer_decode_flops(self.hidden, context_tokens)
                else:
                    flops += costs.head_forward_flops(self.hidden, self.vocab, 1, 1)
            self._decode[context_tokens] = flops
        return flops


class ServingCost:
    """Cost oracle binding one model to one server and serving config."""

    def __init__(self, model: ModelSpec, server: Server, config: InferenceConfig):
        if config.pp > server.n_gpus:
            raise ConfigurationError(
                f"pp={config.pp} stages need {config.pp} GPUs, "
                f"server {server.name} has {server.n_gpus}")
        self.model = model
        self.server = server
        self.config = config
        self.plan = partition_model(model, config.pp, strategy="computation",
                                    microbatch=1)
        self.hidden = model.config.hidden
        self.vocab = model.config.vocab
        self._stages = tuple(_StagePricing(self, s) for s in range(config.pp))
        for stage_id in range(config.pp):
            # A stage must fit its weights with room for at least one
            # KV block, or the workload can never start.
            if self.kv_pool_bytes(stage_id) < self.block_bytes(stage_id):
                raise ConfigurationError(
                    f"stage {stage_id}: weights leave no room for a single "
                    f"KV block on {server.gpu(self.stage_device(stage_id)).name}")

    # -- placement ---------------------------------------------------------

    @property
    def n_stages(self) -> int:
        return self.config.pp

    def stage_device(self, stage: int) -> int:
        """Stage ``s`` runs on GPU ``s``; the rest are spare-memory peers."""
        return stage

    @property
    def spare_devices(self) -> List[int]:
        return list(range(self.config.pp, self.server.n_gpus))

    # -- static footprints -------------------------------------------------

    def _stage(self, stage: int) -> _StagePricing:
        if not 0 <= stage < len(self._stages):
            self.plan.stage(stage)  # raises PartitionError
        return self._stages[stage]

    def weight_bytes(self, stage: int) -> int:
        return self._stage(stage).weight_bytes

    def n_transformer_layers(self, stage: int) -> int:
        return self._stage(stage).n_transformer_layers

    def kv_token_bytes(self, stage: int) -> int:
        """KV bytes one token pins on this stage (all its layers)."""
        return self._stage(stage).kv_token_bytes

    def block_bytes(self, stage: int) -> int:
        per_token = self.kv_token_bytes(stage)
        if per_token == 0:
            # Embedding/head-only stages store no KV; give them a
            # token-sized placeholder so block arithmetic stays uniform.
            per_token = costs.kv_cache_bytes_per_token(self.hidden, KV_BYTES_PER_ELEMENT)
        return self.config.block_tokens * per_token

    def blocks_for_tokens(self, tokens: int) -> int:
        if tokens < 0:
            raise ConfigurationError(f"token count must be >= 0, got {tokens}")
        return -(-tokens // self.config.block_tokens)

    def kv_pool_bytes(self, stage: int) -> int:
        """KV capacity of the stage's GPU: memory minus resident weights."""
        gpu = self.server.gpu(self.stage_device(stage))
        spare = gpu.memory_bytes - self.weight_bytes(stage)
        if spare <= 0:
            raise ConfigurationError(
                f"stage {stage}: {self.weight_bytes(stage)} bytes of weights "
                f"exceed {gpu.name}'s memory")
        if self.config.kv_pool_mib is None:
            return spare
        return min(spare, self.config.kv_pool_mib * MiB)

    # -- per-phase FLOPs ---------------------------------------------------

    def prefill_flops(self, stage: int, prompt_tokens: int) -> float:
        """One request's prefill over ``prompt_tokens`` on this stage."""
        return self._stage(stage).prefill_flops(prompt_tokens)

    def decode_flops(self, stage: int, context_tokens: int) -> float:
        """One request's single-token decode against ``context_tokens``."""
        return self._stage(stage).decode_flops(context_tokens)

    # -- iteration timing --------------------------------------------------

    def throughput(self, stage: int) -> float:
        return self._stage(stage).throughput

    def price_iteration(
        self,
        stage: int,
        prefill_tokens: Sequence[int],
        decode_contexts: Sequence[int],
    ) -> Tuple[float, float, float]:
        """(duration, prefill FLOPs, decode FLOPs) of one iteration on one stage.

        ``prefill_tokens`` are the *chargeable* prompt lengths of this
        iteration's prefills (prefix-cache hits already subtracted);
        ``decode_contexts`` the KV context each decoding request reads.
        The duration is the max of the compute-bound and HBM-bound
        times (weights plus every decode's KV streamed once); an empty
        iteration takes no time.
        """
        if not prefill_tokens and not decode_contexts:
            return 0.0, 0.0, 0.0
        priced = self._stage(stage)
        prefill = sum(map(priced.prefill_flops, prefill_tokens))
        decode = sum(map(priced.decode_flops, decode_contexts))
        compute = (prefill + decode) / priced.throughput
        kv_read = sum(decode_contexts) * priced.kv_token_bytes
        hbm = (priced.weight_bytes + kv_read) / priced.hbm_bandwidth
        return max(compute, hbm), prefill, decode

    def stage_duration(
        self,
        stage: int,
        prefill_tokens: Sequence[int],
        decode_contexts: Sequence[int],
    ) -> float:
        """One continuous-batching iteration's time on one stage
        (see :meth:`price_iteration`)."""
        return self.price_iteration(stage, prefill_tokens, decode_contexts)[0]

    def boundary_bytes(self, tokens: int) -> int:
        """Activation bytes crossing a stage boundary for ``tokens``."""
        if tokens <= 0:
            return 0
        return costs.layer_boundary_bytes(self.hidden, tokens, 1, KV_BYTES_PER_ELEMENT)

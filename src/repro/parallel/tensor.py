"""Tensor parallelism: Megatron-style intra-layer sharding.

A TP group of ``tp`` devices splits every transformer layer's
attention heads and MLP columns ``tp`` ways.  Each rank then runs the
*same* pipeline schedule over a model whose per-layer parameters,
FLOPs and activations are scaled down — which is exactly how the
sharding is represented here: :func:`tp_shard_model` rewrites a
:class:`~repro.models.layers.ModelSpec` with :class:`TPLayerSpec`
layers, and the existing partitioner / simulator / memory planner run
unchanged over the shard.

What sharding does *not* shrink is communication: every sharded block
ends in a partial-sum all-reduce across the TP group
(:func:`repro.models.costs.tp_allreduce_count` per direction), priced
on whatever tier the group spans — the reason placement keeps TP
groups inside one server (:mod:`repro.parallel.cluster`).

Sequence parallelism (Korthikanti et al.) additionally shards the
replicated layernorm/dropout tensors along the sequence axis,
changing the activation split
(:func:`repro.sim.memory.tensor_parallel_activation_scale`) and the
stage-boundary tensor (``1/tp``) while moving identical bytes on the
wire (ring all-reduce ≡ reduce-scatter + all-gather).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.models import costs
from repro.models.layers import LayerKind, LayerSpec, ModelSpec
from repro.sim.memory import tensor_parallel_activation_scale


@dataclass(frozen=True)
class TPLayerSpec(LayerSpec):
    """One layer as seen by a single tensor-parallel rank."""

    tp: int = 1
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        if self.tp < 1:
            raise ConfigurationError(
                f"tensor-parallel degree must be >= 1, got {self.tp}")

    @property
    def params(self) -> int:
        base = LayerSpec.params.fget(self)
        if self.tp == 1:
            return base
        if self.kind is LayerKind.TRANSFORMER:
            # Matmul weights (12 h^2) shard cleanly; layernorm gains/
            # biases (13 h) stay replicated on every rank.
            hidden = self.config.hidden
            return (12 * hidden * hidden) // self.tp + 13 * hidden
        # Embedding tables shard along the vocab/position axis; the
        # head ties weights with the embedding (zero of its own).
        return base // self.tp

    def forward_flops(self, microbatch: int) -> float:
        return LayerSpec.forward_flops(self, microbatch) / self.tp

    def activation_bytes(self, microbatch: int, bytes_per_element: int = 2) -> int:
        if self.tp == 1:
            return LayerSpec.activation_bytes(self, microbatch, bytes_per_element)
        cfg = self.config
        if self.kind is LayerKind.TRANSFORMER:
            linear, attention = costs.layer_activation_split(
                cfg.hidden, cfg.seq_len, microbatch, cfg.heads, bytes_per_element
            )
            scale = tensor_parallel_activation_scale(self.tp, self.sequence_parallel)
            return int(linear * scale + attention / self.tp)
        base = LayerSpec.activation_bytes(self, microbatch, bytes_per_element)
        return base // self.tp if self.sequence_parallel else base

    def boundary_bytes(self, microbatch: int, bytes_per_element: int = 2) -> int:
        base = LayerSpec.boundary_bytes(self, microbatch, bytes_per_element)
        if self.tp > 1 and self.sequence_parallel:
            # SP keeps the boundary tensor sequence-sharded; plain TP
            # materialises the full tensor on every rank post all-reduce.
            return max(1, base // self.tp)
        return base


def tp_shard_model(model: ModelSpec, tp: int,
                   sequence_parallel: bool = False) -> ModelSpec:
    """The model one TP rank runs: every layer rewritten as a shard."""
    if tp < 1:
        raise ConfigurationError(f"tensor-parallel degree must be >= 1, got {tp}")
    if tp == 1:
        return model
    cfg = model.config
    if cfg.hidden % tp != 0:
        raise ConfigurationError(
            f"tensor-parallel degree {tp} does not divide hidden {cfg.hidden}")
    if tp > cfg.heads:
        # An uneven head split (e.g. 51 heads over 2 ranks) is modelled
        # continuously — the analytic costs divide by ``tp`` — but more
        # ranks than heads would leave some with no attention work.
        raise ConfigurationError(
            f"tensor-parallel degree {tp} exceeds {cfg.heads} attention heads")
    layers = [
        TPLayerSpec(index=layer.index, kind=layer.kind, config=layer.config,
                    tp=tp, sequence_parallel=sequence_parallel)
        for layer in model.layers
    ]
    return ModelSpec(config=cfg, layers=layers)


def tp_sync_time(layers: Sequence[LayerSpec], topology, group: Sequence[int],
                 microbatch: int, bytes_per_element: int = 2,
                 algorithm: str = "ring", pcie=None) -> float:
    """Analytic seconds of TP all-reduces for ``layers`` over one
    microbatch's forward+backward on ``group``.

    Payloads dedupe to at most a handful of distinct sizes, so the
    collective model runs once per size, not once per layer.
    """
    from repro.collectives.cost import all_reduce_time
    from repro.hardware.links import PCIE3_X16

    group = tuple(group)
    if len(group) < 2:
        return 0.0
    if pcie is None:
        pcie = PCIE3_X16
    by_size: Dict[int, float] = {}
    total = 0.0
    for layer in layers:
        cfg = layer.config
        count = 2 * costs.tp_allreduce_count(layer.kind.value)
        payload = costs.tp_allreduce_bytes(
            cfg.hidden, cfg.seq_len, microbatch, bytes_per_element)
        if payload not in by_size:
            by_size[payload] = all_reduce_time(
                topology, group, payload, algorithm, pcie=pcie)
        total += count * by_size[payload]
    return total

"""Analytic cost formulas for transformer layers.

Parameter counts follow the standard accounting (attention QKV/out
projections + 4h MLP + layernorms + biases = ``12 h^2 + 13 h`` per
layer).  Activation footprints follow Korthikanti et al., "Reducing
Activation Recomputation in Large Transformer Models": a layer with
sequence length ``s``, microbatch ``b``, hidden ``h`` and ``a`` heads
stores ``s b h (34 + 5 a s / h)`` bytes at 2 bytes/element.

Memory per parameter uses mixed-precision training state accounting
(the regime both PipeDream-style and DAPPLE-style jobs in the paper
report in Table I): fp16 parameters (2 B) + fp16 gradients (2 B) +
fp32 master copy, momentum and variance (12 B) — so optimizer state
is 3x the size of parameters-plus-gradients, matching the paper's
46% vs 15% split.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

# Mixed-precision training state, bytes per parameter (the fp16
# regime: fp16 param + fp16 grad + fp32 master/momentum/variance).
PARAM_BYTES = 2
GRAD_BYTES = 2
OPTIMIZER_BYTES = 12  # fp32 master + Adam momentum + Adam variance


def state_bytes_per_param(bytes_per_element: int):
    """(param, grad, optimizer) bytes per parameter for a precision.

    fp32 training (PipeDream-era): fp32 params/grads, Adam m+v.
    fp16 mixed precision (DAPPLE-era): fp16 params/grads, fp32
    master + m + v.  Both total 16 bytes/param, but the split
    determines what weight stashing multiplies.
    """
    if bytes_per_element == 4:
        return 4, 4, 8
    if bytes_per_element == 2:
        return PARAM_BYTES, GRAD_BYTES, OPTIMIZER_BYTES
    raise ConfigurationError("bytes_per_element must be 2 (fp16) or 4 (fp32)")

# Elements stored per (token x hidden) position in one transformer
# layer's saved activations, and per (token x token x head) position
# in the attention matrices.  Two profiles, keyed by element width:
#
# * fp16 (2 B) — an optimized mixed-precision stack (DAPPLE-era):
#   the Korthikanti accounting's 17 linear elements, with fused
#   attention kernels keeping roughly one a*s^2 matrix.
# * fp32 (4 B) — an eager PyTorch-1.2-era stack (PipeDream): every
#   intermediate survives (pre/post softmax, dropout masks, GeLU
#   inputs, ...), roughly 29 linear and 4.7 attention elements.
#
# The coefficients are calibrated against the paper's Table II
# per-stage memory demands (Bert-0.64B stage 0 ~51 GB at microbatch
# 12; GPT-5.3B max stage ~28.5 GB at microbatch 2) and reproduce the
# paper's trainability boundaries in Figures 7/8.
_ACTIVATION_PROFILE = {
    2: (17.0, 1.0),
    4: (29.0, 4.7),
}


def layer_params(hidden: int) -> int:
    """Parameters in one transformer layer (attention + MLP + norms)."""
    _check_positive(hidden=hidden)
    return 12 * hidden * hidden + 13 * hidden


def embedding_params(vocab: int, max_positions: int, hidden: int) -> int:
    """Parameters in the embedding block (token + position tables)."""
    _check_positive(vocab=vocab, max_positions=max_positions, hidden=hidden)
    return (vocab + max_positions) * hidden


def layer_forward_flops(hidden: int, seq: int, microbatch: int) -> float:
    """FLOPs for one layer's forward pass over one microbatch.

    Matmul-dominated: ``24 s h^2`` for the projections/MLP plus
    ``4 s^2 h`` for attention score and context matmuls, per sample.
    """
    _check_positive(hidden=hidden, seq=seq, microbatch=microbatch)
    per_sample = 24.0 * seq * hidden * hidden + 4.0 * seq * seq * hidden
    return microbatch * per_sample


def layer_backward_flops(hidden: int, seq: int, microbatch: int) -> float:
    """Backward FLOPs, estimated as 2x forward (the paper, Sec. IV-A)."""
    return 2.0 * layer_forward_flops(hidden, seq, microbatch)


def layer_activation_split(
    hidden: int,
    seq: int,
    microbatch: int,
    heads: int,
    bytes_per_element: int = 2,
) -> tuple:
    """(linear, attention) activation bytes of one layer, one microbatch.

    Exposed separately because tensor parallelism shards the two parts
    differently: attention matrices split cleanly across heads, while
    a fraction of the linear activations stays replicated (see
    :data:`repro.sim.memory.TP_REPLICATED_LINEAR_FRACTION`).
    """
    _check_positive(hidden=hidden, seq=seq, microbatch=microbatch, heads=heads)
    if bytes_per_element not in _ACTIVATION_PROFILE:
        raise ConfigurationError("bytes_per_element must be 2 (fp16) or 4 (fp32)")
    linear_elems, attention_elems = _ACTIVATION_PROFILE[bytes_per_element]
    linear = linear_elems * seq * microbatch * hidden
    attention = attention_elems * heads * seq * seq * microbatch
    return (linear * bytes_per_element, attention * bytes_per_element)


def layer_activation_bytes(
    hidden: int,
    seq: int,
    microbatch: int,
    heads: int,
    bytes_per_element: int = 2,
) -> int:
    """Saved-for-backward activation bytes of one layer, one microbatch."""
    linear, attention = layer_activation_split(
        hidden, seq, microbatch, heads, bytes_per_element
    )
    return int(linear + attention)


def kv_cache_bytes_per_token(hidden: int, bytes_per_element: int = 2) -> int:
    """KV-cache bytes one transformer layer stores per generated token.

    Autoregressive decoding keeps the key and value projections of
    every past token resident — two ``hidden``-wide vectors per layer
    per token.  This is the quantity that makes the KV cache the
    dominant serving-time memory consumer and the tensor the
    inference D2D swap path stripes to spare-memory peers.
    """
    _check_positive(hidden=hidden, bytes_per_element=bytes_per_element)
    return 2 * hidden * bytes_per_element


def layer_decode_flops(hidden: int, context: int) -> float:
    """FLOPs for one layer's forward pass over a single decode token.

    The projections/MLP cost the same ``24 h^2`` as one position of a
    prefill pass; the attention matmuls score the new token against
    the full ``context`` of cached keys/values (``4 c h``).
    """
    _check_positive(hidden=hidden, context=context)
    return 24.0 * hidden * hidden + 4.0 * context * hidden


def layer_boundary_bytes(hidden: int, seq: int, microbatch: int, bytes_per_element: int = 2) -> int:
    """Bytes of the activation tensor crossing a layer boundary.

    This is the tensor shipped between pipeline stages — small
    relative to the saved activations, which is why inter-operator
    parallelism has the lightest communication (Section II-A).
    """
    _check_positive(hidden=hidden, seq=seq, microbatch=microbatch)
    return seq * microbatch * hidden * bytes_per_element


def embedding_forward_flops(hidden: int, seq: int, microbatch: int) -> float:
    """Embedding lookup cost: one read+add per position, negligible matmul."""
    _check_positive(hidden=hidden, seq=seq, microbatch=microbatch)
    return 2.0 * seq * microbatch * hidden


def head_forward_flops(hidden: int, vocab: int, seq: int, microbatch: int) -> float:
    """Output head (logits) matmul cost."""
    _check_positive(hidden=hidden, vocab=vocab, seq=seq, microbatch=microbatch)
    return 2.0 * seq * microbatch * hidden * vocab


def model_state_bytes(params: int) -> int:
    """Total training-state bytes for ``params`` parameters."""
    _check_positive(params=params)
    return params * (PARAM_BYTES + GRAD_BYTES + OPTIMIZER_BYTES)


# Tensor parallelism (Megatron-style).  Each sharded block ends in a
# row-parallel matmul whose partial sums must be all-reduced across
# the TP group; a transformer layer has two such blocks (attention
# out-projection and MLP down-projection), the embedding and the
# tied-weight head one each.  The backward pass mirrors the forward
# (all-reduces move to the column-parallel entry points), so the
# per-direction count is the same.  Every one of these all-reduces
# carries exactly one boundary-sized activation tensor — under
# sequence parallelism the all-reduce becomes reduce-scatter +
# all-gather, which on a ring moves identical bytes.


def tp_allreduce_count(kind: str) -> int:
    """TP all-reduces per direction (fwd or bwd) for one layer kind."""
    if kind == "transformer":
        return 2
    if kind in ("embedding", "head"):
        return 1
    raise ConfigurationError(f"unknown layer kind {kind!r}")


def tp_allreduce_bytes(hidden: int, seq: int, microbatch: int,
                       bytes_per_element: int = 2) -> int:
    """Payload of one TP all-reduce: one boundary-sized activation."""
    return layer_boundary_bytes(hidden, seq, microbatch, bytes_per_element)


def _check_positive(**named_values: float) -> None:
    for name, value in named_values.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")

"""Serving workload model: request arrivals and token budgets.

An :class:`InferenceConfig` describes one LLM serving experiment the
way a :class:`~repro.job.TrainingJob` describes one training run —
everything is plain frozen data so the config hashes into the
runtime's content-addressed cache keys unchanged.  Requests are drawn
from seeded distributions (Poisson or uniform arrivals, clamped
Gaussian prompt/output lengths) or replayed from an explicit trace,
so the same config always produces the same workload byte-for-byte.

Each request later runs in two phases (the serving literature's
prefill/decode split): one full-sequence forward pass over the prompt
that produces the first output token, then one forward pass per
additional token reading the KV cache of everything before it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

_ARRIVALS = ("poisson", "uniform", "trace")
# KV overflow policies: stripe to spare GPUs, spill to host, or preempt
# and re-prefill.  The serving sweep grid is all three.
KV_MODES = ("d2d", "pcie", "none")
_INT_FIELDS = ("seed", "n_requests", "prompt_mean", "prompt_min",
               "prompt_max", "output_mean", "output_min", "output_max",
               "block_tokens", "max_batch", "pp", "shared_prefix_tokens")
_REAL_FIELDS = ("arrival_rate", "mfu", "shared_prefix_fraction")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class InferenceConfig:
    """One serving experiment: workload, batching, and KV policy.

    ``kv_swap`` selects what happens when a GPU's KV pool fills:
    ``"d2d"`` stripes cold blocks over NVLink to spare-memory GPUs
    (the paper's D2D swap, applied to inference), ``"pcie"`` spills
    them to host memory over PCIe, and ``"none"`` preempts the victim
    request entirely (vLLM-style recompute preemption).
    """

    seed: int = 0
    n_requests: int = 16
    arrival: str = "poisson"          # "poisson" | "uniform" | "trace"
    arrival_rate: float = 8.0         # requests per second
    prompt_mean: int = 128
    prompt_min: int = 16
    prompt_max: int = 512
    output_mean: int = 32
    output_min: int = 4
    output_max: int = 128
    block_tokens: int = 16            # KV paging granularity
    max_batch: int = 8                # continuous-batching admission cap
    pp: int = 1                       # serving pipeline stages
    mfu: float = 0.45                 # fp16 kernels, DAPPLE-era stack
    kv_swap: str = "d2d"              # "d2d" | "pcie" | "none"
    kv_pool_mib: Optional[int] = None  # per-stage KV pool cap (None = all spare)
    shared_prefix_tokens: int = 0     # system-prompt length shared via radix reuse
    shared_prefix_fraction: float = 0.0
    # Trace-driven arrivals: ((arrival_s, prompt_tokens, output_tokens), ...).
    trace: Optional[Tuple[Tuple[float, int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.arrival not in _ARRIVALS:
            raise ConfigurationError(
                f"unknown arrival model {self.arrival!r}; options: {sorted(_ARRIVALS)}")
        if self.kv_swap not in KV_MODES:
            raise ConfigurationError(
                f"unknown kv_swap {self.kv_swap!r}; options: {sorted(KV_MODES)}")
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.kv_pool_mib is not None and not _is_int(self.kv_pool_mib):
            raise ConfigurationError(
                f"kv_pool_mib must be an integer, got {self.kv_pool_mib!r}")
        for name in _REAL_FIELDS:
            if not _is_finite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {getattr(self, name)!r}")
        if (self.trace is not None) != (self.arrival == "trace"):
            raise ConfigurationError(
                'trace-driven workloads need both arrival="trace" and a trace')
        if self.trace is not None:
            if not self.trace:
                raise ConfigurationError("a request trace cannot be empty")
            for entry in self.trace:
                if len(entry) != 3:
                    raise ConfigurationError(
                        "trace entries are (arrival, prompt, output) triples")
                arrival, prompt, output = entry
                if not (_is_finite(arrival) and _is_int(prompt) and _is_int(output)):
                    raise ConfigurationError(
                        f"invalid trace entry {entry!r}: arrival must be a "
                        "finite number, prompt/output integers")
                if arrival < 0 or prompt < 1 or output < 1:
                    raise ConfigurationError(
                        f"invalid trace entry {entry!r}: arrival must be >= 0, "
                        "prompt/output >= 1")
        elif self.n_requests < 1:
            raise ConfigurationError("n_requests must be positive")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 1 <= self.prompt_min <= self.prompt_mean <= self.prompt_max:
            raise ConfigurationError(
                "prompt lengths need 1 <= prompt_min <= prompt_mean <= prompt_max")
        if not 1 <= self.output_min <= self.output_mean <= self.output_max:
            raise ConfigurationError(
                "output lengths need 1 <= output_min <= output_mean <= output_max")
        if self.block_tokens < 1:
            raise ConfigurationError("block_tokens must be positive")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be positive")
        if self.pp < 1:
            raise ConfigurationError("pp must be at least one stage")
        if not 0 < self.mfu <= 1:
            raise ConfigurationError("mfu must be in (0, 1]")
        if self.kv_pool_mib is not None and self.kv_pool_mib <= 0:
            raise ConfigurationError("kv_pool_mib must be positive when set")
        if not 0.0 <= self.shared_prefix_fraction <= 1.0:
            raise ConfigurationError("shared_prefix_fraction must be in [0, 1]")
        if self.shared_prefix_fraction > 0 and self.shared_prefix_tokens < 1:
            raise ConfigurationError(
                "shared_prefix_fraction > 0 needs shared_prefix_tokens >= 1")


@dataclass(frozen=True)
class Request:
    """One serving request: arrival time plus token budgets."""

    rid: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    shared_prefix: bool = False

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ConfigurationError("request arrival must be >= 0")
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ConfigurationError("requests need at least one prompt and output token")


def _clamped_gauss(rng: random.Random, mean: int, lo: int, hi: int) -> int:
    value = int(round(rng.gauss(mean, max(1.0, mean / 3.0))))
    return max(lo, min(hi, value))


def generate_requests(config: InferenceConfig) -> List[Request]:
    """Materialize the config's request stream (seeded, deterministic)."""
    if config.trace is not None:
        entries = sorted(config.trace, key=lambda e: (e[0], e[1], e[2]))
        return [
            Request(rid=rid, arrival=float(arrival), prompt_tokens=int(prompt),
                    output_tokens=int(output))
            for rid, (arrival, prompt, output) in enumerate(entries)
        ]
    rng = random.Random(config.seed)
    requests: List[Request] = []
    now = 0.0
    for rid in range(config.n_requests):
        if config.arrival == "poisson":
            now += rng.expovariate(config.arrival_rate)
        else:
            now = rid / config.arrival_rate
        prompt = _clamped_gauss(rng, config.prompt_mean,
                                config.prompt_min, config.prompt_max)
        output = _clamped_gauss(rng, config.output_mean,
                                config.output_min, config.output_max)
        shared = rng.random() < config.shared_prefix_fraction
        if shared:
            # A shared system prompt occupies the head of the request's
            # prompt; keep at least one private token behind it.
            prompt = max(prompt, config.shared_prefix_tokens + 1)
        requests.append(Request(rid=rid, arrival=now, prompt_tokens=prompt,
                                output_tokens=output, shared_prefix=shared))
    return requests

"""ZeRO-Offload and ZeRO-Infinity baselines (Figure 8 comparisons).

Both train data-parallel with full state partitioning (ZeRO-3
semantics): every GPU computes the whole model on its slice of the
minibatch, parameters are allgathered per layer, gradients
reduce-scattered, and activation recomputation is enabled — this is
the configuration the paper runs DeepSpeed with.

The model is analytic rather than a discrete-event simulation: data
parallelism has no pipeline interleaving to capture, so per-step
time decomposes into compute, collective traffic, and the
offload-path traffic each variant exposes:

* **ZeRO-Offload** keeps optimizer states in host memory and runs
  the Adam step on the CPU; gradients stream down and updated
  parameters stream up over PCIe each step, and the CPU-side update
  sits on the critical path (the paper's Section II-D: offloading
  "results in frequent data movement between GPU and CPU").
* **ZeRO-Infinity** keeps the optimizer update on the GPU with
  bandwidth-optimal host swapping, touching NVMe for the cold
  fraction of parameters.  On a machine with slow SSDs the exposed
  NVMe time inverts the ranking (the paper's Figure 8b observation).

Calibration constants (documented, not hidden): ``CPU_ADAM_BW``
matches ZeRO-Offload's reported CPU Adam throughput class;
``NVME_COLD_FRACTION`` is the fraction of parameter bytes that miss
the host cache per step under ZeRO-Infinity's prefetcher.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.hardware.server import Server
from repro.models import costs
from repro.models.layers import ModelSpec

# Fraction of peak FLOPs data-parallel ZeRO kernels achieve at the
# small per-GPU batches these experiments use; ZeRO-3's layer-wise
# allgather synchronization keeps utilization below the pipeline
# systems' (calibrated to the paper's MPress-vs-ZeRO gaps).
ZERO_MFU = 0.33

# CPU Adam streaming rate over optimizer state bytes (read + write).
CPU_ADAM_BW = 11e9

# Share of fp16 parameter bytes ZeRO-Infinity touches on NVMe per
# step (host-cache misses of its prefetcher).
NVME_COLD_FRACTION = 0.10

# Collectives overlap this fraction of compute; offload PCIe traffic
# overlaps the backward pass up to this fraction as well.
COMM_OVERLAP = 0.5

# Ring-allreduce efficiency over the aggregate NVLink bandwidth.
RING_EFFICIENCY = 0.8

COMM_MODELS = ("analytic", "collective")


@dataclass(frozen=True)
class ZeroOptions:
    """Calibration knobs of the ZeRO analytic model.

    Defaults reproduce the historical module constants exactly, so
    existing sweeps, goldens, and cache entries are unchanged unless
    a knob is moved.

    ``comm_model`` selects how collective traffic is priced:

    * ``"analytic"`` (default) — the original flat-rate model:
      three full-model fp16 volumes over the aggregate NVLink
      bandwidth derated by ``ring_efficiency``;
    * ``"collective"`` — per-layer ring all-gather (forward and
      backward) plus ring reduce-scatter, priced by the
      topology-aware schedule model in :mod:`repro.collectives`, so
      latency per layer and the actual link graph (e.g. the DGX-1
      cube mesh's weak edges) shape the communication time.
    """

    mfu: float = ZERO_MFU
    ring_efficiency: float = RING_EFFICIENCY
    comm_overlap: float = COMM_OVERLAP
    cpu_adam_bw: float = CPU_ADAM_BW
    nvme_cold_fraction: float = NVME_COLD_FRACTION
    comm_model: str = "analytic"

    def __post_init__(self) -> None:
        if not 0.0 < self.mfu <= 1.0:
            raise ConfigurationError(f"mfu must be in (0, 1], got {self.mfu}")
        if not 0.0 < self.ring_efficiency <= 1.0:
            raise ConfigurationError(
                f"ring efficiency must be in (0, 1], got {self.ring_efficiency}")
        if not 0.0 <= self.comm_overlap <= 1.0:
            raise ConfigurationError(
                f"comm overlap must be in [0, 1], got {self.comm_overlap}")
        if self.cpu_adam_bw <= 0:
            raise ConfigurationError(
                f"CPU Adam bandwidth must be positive, got {self.cpu_adam_bw}")
        if not 0.0 <= self.nvme_cold_fraction <= 1.0:
            raise ConfigurationError(
                f"NVMe cold fraction must be in [0, 1], "
                f"got {self.nvme_cold_fraction}")
        if self.comm_model not in COMM_MODELS:
            raise ConfigurationError(
                f"unknown comm model {self.comm_model!r}; "
                f"options: {COMM_MODELS}")


@dataclass(frozen=True)
class ZeroResult:
    """Outcome of one ZeRO training-step model evaluation."""

    variant: str
    ok: bool
    reason: str
    minibatch_time: float
    compute_time: float
    comm_exposed: float
    offload_exposed: float
    per_gpu_memory: int
    host_bytes: int
    model_flops: float

    @property
    def tflops(self) -> float:
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.model_flops / self.minibatch_time / 1e12

    @property
    def samples_per_second(self) -> float:
        return 0.0 if not self.ok else self._samples / self.minibatch_time

    @property
    def oom(self) -> Optional[str]:
        """Why the step does not fit, or ``None`` when it does."""
        return None if self.ok else self.reason

    @property
    def makespan(self) -> float:
        """The modelled run is one training step."""
        return self.minibatch_time

    # set via object.__setattr__ in run_zero
    _samples: int = 0


def zero_memory_per_gpu(model: ModelSpec, server: Server, local_batch: int) -> int:
    """Per-GPU bytes under ZeRO-3 with recomputation enabled.

    Sharded fp16 params + fp16 grads, the transient unsharded
    working layer (allgather buffer), and checkpointed activations
    for the local batch.
    """
    n = server.n_gpus
    params = model.total_params
    shard = params * (costs.PARAM_BYTES + costs.GRAD_BYTES) // n
    largest_layer = max(layer.params for layer in model.layers)
    gather_buffer = 2 * largest_layer * costs.PARAM_BYTES
    boundaries = sum(
        layer.boundary_bytes(local_batch, 2) for layer in model.layers
    )
    largest_act = max(layer.activation_bytes(local_batch, 2) for layer in model.layers)
    return shard + gather_buffer + boundaries + largest_act


def zero_comm_time(model: ModelSpec, server: Server,
                   options: ZeroOptions) -> float:
    """ZeRO-3 collective traffic per step, priced per ``comm_model``.

    Both models move the same three full-model fp16 volumes (param
    all-gather for forward and for backward, gradient
    reduce-scatter); they differ in how the wire time is computed.
    """
    params = model.total_params
    param_bytes = params * costs.PARAM_BYTES
    if options.comm_model == "analytic":
        ring_bw = (
            server.topology.lane_budget
            * server.topology.nvlink.sustained_bandwidth
            * options.ring_efficiency
        )
        return 3.0 * param_bytes / ring_bw
    from repro.collectives.cost import collective_time
    from repro.collectives.schedule import (
        ring_all_gather,
        ring_order,
        ring_reduce_scatter,
    )

    topology = server.topology
    order = ring_order(topology, tuple(range(server.n_gpus)))
    total = 0.0
    for layer in model.layers:
        layer_bytes = layer.params * costs.PARAM_BYTES
        if layer_bytes <= 0:
            continue
        gather = collective_time(
            ring_all_gather(order, layer_bytes), topology, server.pcie)
        scatter = collective_time(
            ring_reduce_scatter(order, layer_bytes), topology, server.pcie)
        total += 2.0 * gather + scatter
    return total


def run_zero(
    model: ModelSpec,
    server: Server,
    variant: str,
    samples_per_minibatch: int,
    mfu: Optional[float] = None,
    options: Optional[ZeroOptions] = None,
) -> ZeroResult:
    """Evaluate one ZeRO variant's training step on ``server``.

    ``variant`` is ``"offload"`` or ``"infinity"``.  ``options``
    carries the calibration knobs; the legacy ``mfu`` argument, when
    given, overrides ``options.mfu``.
    """
    if variant not in ("offload", "infinity"):
        raise ConfigurationError(f"unknown ZeRO variant {variant!r}")
    if options is None:
        options = ZeroOptions()
    if mfu is not None:
        options = replace(options, mfu=mfu)
    n = server.n_gpus
    if samples_per_minibatch % n != 0:
        raise ConfigurationError("minibatch must divide evenly across GPUs")
    local_batch = samples_per_minibatch // n
    params = model.total_params
    param_bytes = params * costs.PARAM_BYTES
    optimizer_bytes = params * costs.OPTIMIZER_BYTES

    # -- memory feasibility -------------------------------------------------
    per_gpu = zero_memory_per_gpu(model, server, local_batch)
    if per_gpu > server.gpu_memory:
        return _failed(variant, "per-GPU memory exceeds capacity", per_gpu, model)
    host_bytes = optimizer_bytes + 2 * param_bytes  # states + pinned staging
    if variant == "offload" and host_bytes > server.host.memory_bytes:
        return _failed(variant, "host memory exceeds capacity", per_gpu, model)

    # -- timing ----------------------------------------------------------------
    # Recomputation re-runs the forward pass: 4/3 of model FLOPs.
    model_flops = model.iteration_flops(samples_per_minibatch)
    compute = model_flops * (4.0 / 3.0) / (
        n * server.gpus[0].peak_flops("fp16") * options.mfu
    )

    # ZeRO-3 collectives: params allgathered for forward and backward,
    # gradients reduce-scattered — three full-model fp16 volumes.
    comm = zero_comm_time(model, server, options)
    comm_exposed = max(0.0, comm - options.comm_overlap * compute)

    if variant == "offload":
        # Per-step: fp16 gradients stream to host, updated fp16
        # parameters stream back (per-GPU shards).
        pcie = 2.0 * (param_bytes / n) / server.pcie.sustained_bandwidth
        cpu_adam = (optimizer_bytes + param_bytes) / n / options.cpu_adam_bw
        offload_exposed = cpu_adam + max(
            0.0, pcie - options.comm_overlap * compute)
    else:
        # GPU-side update with host swapping: optimizer state round
        # trip over PCIe, largely overlapped; the cold parameter
        # fraction misses the host cache and pays NVMe rates.
        pcie = 2.0 * (optimizer_bytes / n) / server.pcie.sustained_bandwidth
        cold = options.nvme_cold_fraction * param_bytes
        nvme = cold / server.nvme.read_bandwidth + cold / server.nvme.write_bandwidth
        offload_exposed = max(0.0, pcie - 0.7 * compute) + nvme

    step = compute + comm_exposed + offload_exposed
    result = ZeroResult(
        variant=variant,
        ok=True,
        reason="",
        minibatch_time=step,
        compute_time=compute,
        comm_exposed=comm_exposed,
        offload_exposed=offload_exposed,
        per_gpu_memory=per_gpu,
        host_bytes=host_bytes,
        model_flops=model_flops,
    )
    object.__setattr__(result, "_samples", samples_per_minibatch)
    return result


def _failed(variant: str, reason: str, per_gpu: int, model: ModelSpec) -> ZeroResult:
    return ZeroResult(
        variant=variant,
        ok=False,
        reason=reason,
        minibatch_time=0.0,
        compute_time=0.0,
        comm_exposed=0.0,
        offload_exposed=0.0,
        per_gpu_memory=per_gpu,
        host_bytes=0,
        model_flops=model.iteration_flops(1),
    )

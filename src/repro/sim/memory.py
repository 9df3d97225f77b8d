"""Per-device memory accounting over simulated time.

:class:`DeviceMemory` tracks one device's usage as tasks allocate and
free tensors; :class:`MemoryModel` groups all GPUs plus the host.
Two modes cover the library's two consumers:

* ``strict=True`` — exceeding capacity raises
  :class:`~repro.errors.OutOfMemoryError`, mirroring the red crossed
  OOM marks in Figures 7/8;
* ``strict=False`` — overflow is recorded (peak > capacity) so the
  planner's emulator (Section III-B, step 5) can measure *how much*
  memory a tentative plan still needs.

:class:`PinnedPool` models the host pinned-memory pool the paper
builds outside the PyTorch runtime (Section III-E) — allocation from
the pool is free after a one-time reservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import OutOfMemoryError, SimulationError

# Fraction of a transformer layer's *linear* activation bytes that a
# Megatron-style TP split leaves replicated on every rank: of the 34
# bytes per token-position in the Korthikanti accounting, the two
# layernorm inputs (4), the two block inputs (4) and the two dropout
# masks (2) sit outside the sharded matmul chains — 10 of 34.
TP_REPLICATED_LINEAR_FRACTION = 10.0 / 34.0


def tensor_parallel_activation_scale(tp: int, sequence_parallel: bool = False) -> float:
    """Scale on a layer's linear activation bytes under a TP split.

    Plain tensor parallelism shards the projection/MLP activations
    ``tp``-ways but keeps the layernorm/dropout/residual tensors
    replicated, so the linear footprint scales by
    ``rho + (1 - rho) / tp`` with ``rho`` the replicated fraction.
    Sequence parallelism (Korthikanti et al.) shards those replicated
    tensors along the sequence axis too, restoring a clean ``1/tp``.
    Attention matrices split over heads and always scale ``1/tp``.
    """
    if tp < 1:
        raise SimulationError(f"tensor-parallel degree must be >= 1, got {tp}")
    if tp == 1:
        return 1.0
    if sequence_parallel:
        return 1.0 / tp
    rho = TP_REPLICATED_LINEAR_FRACTION
    return rho + (1.0 - rho) / tp


@dataclass
class DeviceMemory:
    """Memory tracker for one device (GPU index or ``"host"``)."""

    name: str
    capacity: int
    strict: bool = False
    in_use: int = 0
    peak: int = 0
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    events: List[Tuple[float, int, str]] = field(default_factory=list)
    _tags: Dict[str, int] = field(default_factory=dict)

    def alloc(self, size: int, time: float, tag: str = "anon") -> None:
        if size < 0:
            raise SimulationError(f"{self.name}: negative allocation {size}")
        if self.strict and self.in_use + size > self.capacity:
            raise OutOfMemoryError(self.name, size, self.in_use, self.capacity)
        self.in_use += size
        self._tags[tag] = self._tags.get(tag, 0) + size
        if self.in_use > self.peak:
            self.peak = self.in_use
        self.timeline.append((time, self.in_use))
        self.events.append((time, size, tag))

    def free(self, size: int, time: float, tag: str = "anon") -> None:
        if size < 0:
            raise SimulationError(f"{self.name}: negative free {size}")
        held = self._tags.get(tag, 0)
        if held < size:
            raise SimulationError(
                f"{self.name}: freeing {size} bytes of tag {tag!r} but only {held} held"
            )
        self.in_use -= size
        self._tags[tag] = held - size
        self.timeline.append((time, self.in_use))
        self.events.append((time, -size, tag))

    def composition_at(self, moment: float) -> Dict[str, int]:
        """Bytes held per tag at ``moment`` (replayed from events)."""
        held: Dict[str, int] = {}
        for time, delta, tag in self.events:
            if time > moment:
                break
            held[tag] = held.get(tag, 0) + delta
        return {tag: size for tag, size in held.items() if size > 0}

    @property
    def overflow(self) -> int:
        """Bytes by which peak usage exceeded capacity (0 if it fits)."""
        return max(0, self.peak - self.capacity)

    @property
    def headroom(self) -> int:
        """Bytes of capacity never used at peak (0 if overflowing)."""
        return max(0, self.capacity - self.peak)

    def usage_by_tag(self) -> Dict[str, int]:
        return {tag: size for tag, size in self._tags.items() if size > 0}


class MemoryModel:
    """All device memories of one simulated server."""

    def __init__(self, gpu_capacities: List[int], host_capacity: int, strict: bool = False):
        self.gpus = [
            DeviceMemory(name=f"gpu{i}", capacity=cap, strict=strict)
            for i, cap in enumerate(gpu_capacities)
        ]
        self.host = DeviceMemory(name="host", capacity=host_capacity, strict=strict)
        self.strict = strict

    def gpu(self, index: int) -> DeviceMemory:
        if not 0 <= index < len(self.gpus):
            raise SimulationError(f"GPU index {index} out of range")
        return self.gpus[index]

    def peaks(self) -> List[int]:
        return [gpu.peak for gpu in self.gpus]

    def total_peak(self) -> int:
        return sum(self.peaks())

    def any_overflow(self) -> bool:
        return any(gpu.overflow > 0 for gpu in self.gpus) or self.host.overflow > 0

    def overflowed_gpus(self) -> List[int]:
        return [i for i, gpu in enumerate(self.gpus) if gpu.overflow > 0]


@dataclass
class PinnedPool:
    """Host pinned-memory pool for swap staging buffers.

    Reserved once at bootstrap; ``take``/``give`` track outstanding
    staging space and fail when the reservation is exhausted, which
    would stall real swapping too.
    """

    capacity: int
    in_use: int = 0
    peak: int = 0

    def take(self, size: int) -> None:
        if size < 0:
            raise SimulationError("pinned pool: negative take")
        if self.in_use + size > self.capacity:
            raise OutOfMemoryError("pinned-pool", size, self.in_use, self.capacity)
        self.in_use += size
        self.peak = max(self.peak, self.in_use)

    def give(self, size: int) -> None:
        if size < 0 or size > self.in_use:
            raise SimulationError("pinned pool: invalid give")
        self.in_use -= size

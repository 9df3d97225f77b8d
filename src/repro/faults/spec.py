"""Fault specifications and schedules.

Production multi-GPU training is dominated by *partial* failures:
straggling GPUs, degraded NVLink/PCIe lanes, mid-run device loss, and
host-side storage stalls.  A :class:`FaultSpec` describes one such
timed event; a :class:`FaultSchedule` is the ordered set injected
into one simulation (see :mod:`repro.faults.inject`).

Four fault kinds cover the failure modes the resilience literature
models (RAPID-LLM's failure -> checkpoint/restart -> recomputation
pipeline):

* ``device-slowdown`` — a GPU's compute runs at ``factor`` of
  nominal speed over ``[start, start + duration)`` (thermal
  throttling, a noisy neighbour, ECC retirement pressure).
* ``link-degrade`` — the NVLink lanes between ``device`` and
  ``peer`` (or, with ``peer=None``, the device's PCIe channels)
  deliver ``factor`` of nominal bandwidth over the window.
* ``device-fail`` — fail-stop loss of ``device`` at ``start``; the
  run pays a checkpoint-restore (restart latency + state reload +
  lost-work re-execution).
* ``nvme-stall`` — the host NVMe queues deliver ``factor`` of
  nominal bandwidth over the window (GC pauses, saturated SSDs).

Schedules serialize to JSON and can be generated from a seed for
randomized-but-reproducible fault campaigns.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    DEVICE_SLOWDOWN = "device-slowdown"
    LINK_DEGRADE = "link-degrade"
    DEVICE_FAIL = "device-fail"
    NVME_STALL = "nvme-stall"


_WINDOWED = (FaultKind.DEVICE_SLOWDOWN, FaultKind.LINK_DEGRADE, FaultKind.NVME_STALL)


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault event.

    ``factor`` is the remaining speed fraction in ``(0, 1]`` for
    windowed kinds (0.5 = half speed); device failures instead carry
    a ``restart_latency`` — the fixed part of the recovery (node
    replacement, process respawn, NCCL re-init) on top of state
    reload and lost-work re-execution, which the simulator computes.
    """

    kind: FaultKind
    start: float
    duration: float = 0.0
    device: Optional[int] = None
    peer: Optional[int] = None
    factor: float = 1.0
    restart_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"fault start {self.start} must be >= 0")
        if self.duration < 0:
            raise ConfigurationError(f"fault duration {self.duration} must be >= 0")
        if self.kind in _WINDOWED and not 0 < self.factor <= 1:
            raise ConfigurationError(
                f"{self.kind.value}: factor {self.factor} must be in (0, 1]"
            )
        if self.kind in (FaultKind.DEVICE_SLOWDOWN, FaultKind.DEVICE_FAIL,
                         FaultKind.LINK_DEGRADE):
            if self.device is None or self.device < 0:
                raise ConfigurationError(f"{self.kind.value} needs a device index")
        if self.kind is FaultKind.DEVICE_FAIL and self.restart_latency < 0:
            raise ConfigurationError("restart_latency must be >= 0")
        if self.peer is not None and self.peer == self.device:
            raise ConfigurationError("link-degrade peer must differ from device")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def is_window(self) -> bool:
        return self.kind in _WINDOWED

    def active_at(self, time: float) -> bool:
        """Whether the window covers ``time`` (half-open interval)."""
        return self.is_window and self.start <= time < self.end

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind.value,
            "start": self.start,
            "duration": self.duration,
            "device": self.device,
            "peer": self.peer,
            "factor": self.factor,
            "restart_latency": self.restart_latency,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        return cls(
            kind=FaultKind(data["kind"]),
            start=float(data["start"]),
            duration=float(data.get("duration", 0.0)),
            device=data.get("device"),
            peer=data.get("peer"),
            factor=float(data.get("factor", 1.0)),
            restart_latency=float(data.get("restart_latency", 0.0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults injected into one simulation."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def is_empty(self) -> bool:
        return not self.faults

    @property
    def horizon(self) -> float:
        """Latest instant any fault touches."""
        return max((f.end for f in self.faults), default=0.0)

    def windows(self) -> List[FaultSpec]:
        return [f for f in self.faults if f.is_window]

    def failures(self) -> List[FaultSpec]:
        return [f for f in self.faults if f.kind is FaultKind.DEVICE_FAIL]

    def for_device(self, device: int) -> List[FaultSpec]:
        return [f for f in self.faults if f.device == device or f.peer == device]

    def compute_factor(self, device: int, time: Optional[float] = None) -> float:
        """Combined compute-speed factor for ``device``.

        With ``time`` given, only windows active at that instant
        count; without, the worst (product of all windows) — the
        planner's conservative view.
        """
        factor = 1.0
        for fault in self.faults:
            if fault.kind is not FaultKind.DEVICE_SLOWDOWN or fault.device != device:
                continue
            if time is None or fault.active_at(time):
                factor *= fault.factor
        return factor

    def pcie_factor(self, device: int) -> float:
        """Worst-case PCIe bandwidth factor for ``device``."""
        factor = 1.0
        for fault in self.faults:
            if (fault.kind is FaultKind.LINK_DEGRADE and fault.device == device
                    and fault.peer is None):
                factor *= fault.factor
        return factor

    def degraded_devices(self) -> Set[int]:
        """Devices any fault touches (slow, failed, or on a bad link).

        The planner avoids parking D2D-swapped state on these.
        """
        touched: Set[int] = set()
        for fault in self.faults:
            if fault.device is not None:
                touched.add(fault.device)
            if fault.peer is not None:
                touched.add(fault.peer)
        return touched

    def scaled(self, severity: float) -> "FaultSchedule":
        """A severity-scaled copy: ``severity`` 0 is fault-free-like,
        1 is this schedule, larger is harsher.

        Window factors move as ``factor ** severity`` (monotone in
        severity) and restart latencies scale linearly; timing is
        unchanged, so harsher copies perturb the same instants.
        """
        if severity < 0:
            raise ConfigurationError(f"severity {severity} must be >= 0")
        scaled = []
        for fault in self.faults:
            if fault.is_window:
                scaled.append(replace(fault, factor=fault.factor ** severity))
            elif fault.kind is FaultKind.DEVICE_FAIL:
                scaled.append(
                    replace(fault, restart_latency=fault.restart_latency * severity)
                )
            else:
                scaled.append(fault)
        return FaultSchedule(tuple(scaled))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [f.to_dict() for f in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        data = json.loads(text)
        if not isinstance(data, dict) or "faults" not in data:
            raise ValueError("missing top-level 'faults' list")
        return cls(tuple(FaultSpec.from_dict(d) for d in data["faults"]))


def save_faults(schedule: FaultSchedule, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(schedule.to_json())


def load_faults(path: str) -> FaultSchedule:
    with open(path) as handle:
        return FaultSchedule.from_json(handle.read())


def random_schedule(
    seed: int,
    n_devices: int,
    horizon: float,
    n_faults: Optional[int] = None,
    mtbf: Optional[float] = None,
    failure_weight: float = 0.15,
    min_factor: float = 0.3,
    max_factor: float = 0.9,
    restart_latency: Optional[float] = None,
    kinds: Sequence[FaultKind] = tuple(FaultKind),
) -> FaultSchedule:
    """Deterministic seeded fault campaign.

    Fault instants come from a Poisson process with mean-time-between-
    failures ``mtbf`` when given, else ``n_faults`` (default: one per
    two devices) uniform instants over ``[0, horizon)``.  The same
    seed always produces the same schedule, byte for byte.
    """
    if horizon <= 0:
        raise ConfigurationError(f"campaign horizon {horizon} must be positive")
    if n_devices < 1:
        raise ConfigurationError("campaign needs at least one device")
    rng = random.Random(seed)
    times: List[float] = []
    if mtbf is not None:
        if mtbf <= 0:
            raise ConfigurationError(f"mtbf {mtbf} must be positive")
        t = rng.expovariate(1.0 / mtbf)
        while t < horizon:
            times.append(t)
            t += rng.expovariate(1.0 / mtbf)
    else:
        count = n_faults if n_faults is not None else max(1, n_devices // 2)
        times = sorted(rng.uniform(0.0, horizon) for _ in range(count))
    windowed = [k for k in kinds if k is not FaultKind.DEVICE_FAIL]
    allow_fail = FaultKind.DEVICE_FAIL in kinds
    faults: List[FaultSpec] = []
    for t in times:
        if allow_fail and (not windowed or rng.random() < failure_weight):
            faults.append(
                FaultSpec(
                    kind=FaultKind.DEVICE_FAIL,
                    start=t,
                    device=rng.randrange(n_devices),
                    restart_latency=(
                        restart_latency if restart_latency is not None
                        else 0.02 * horizon
                    ),
                )
            )
            continue
        kind = rng.choice(windowed)
        factor = rng.uniform(min_factor, max_factor)
        duration = rng.uniform(0.05, 0.25) * horizon
        if kind is FaultKind.DEVICE_SLOWDOWN:
            faults.append(FaultSpec(kind=kind, start=t, duration=duration,
                                    device=rng.randrange(n_devices), factor=factor))
        elif kind is FaultKind.LINK_DEGRADE:
            device = rng.randrange(n_devices)
            # Half the draws hit an NVLink pair, half the device's PCIe.
            peer: Optional[int] = None
            if n_devices > 1 and rng.random() < 0.5:
                peer = rng.randrange(n_devices - 1)
                if peer >= device:
                    peer += 1
            faults.append(FaultSpec(kind=kind, start=t, duration=duration,
                                    device=device, peer=peer, factor=factor))
        else:
            faults.append(FaultSpec(kind=kind, start=t, duration=duration,
                                    factor=factor))
    return FaultSchedule(tuple(faults))

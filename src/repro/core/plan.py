"""Memory-saving plan: which action each tensor class receives.

The plan is the artifact MPress Static produces and MPress Runtime
executes (Figure 5).  Each reducible tensor class is assigned one of
the three memory compaction techniques (or left resident), with D2D
entries carrying their stripe plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import PlanError
from repro.core.striping import StripePlan
from repro.graph.tensor import TensorClass, TensorKind


class Action(enum.Enum):
    NONE = "none"
    RECOMPUTE = "recompute"
    CPU_SWAP = "cpu-swap"
    D2D_SWAP = "d2d-swap"


@dataclass(frozen=True)
class PlanEntry:
    """Action assigned to one tensor class.

    ``tier`` applies to CPU swaps: ``"host"`` keeps the tensor in
    pinned host memory; ``"nvme"`` spills it onward to NVMe (the
    ZeRO-Infinity-style escape hatch when host memory cannot hold
    every in-flight swapped tensor).
    """

    cls: TensorClass
    action: Action
    stripe: Optional[StripePlan] = None
    tier: str = "host"

    def __post_init__(self) -> None:
        if self.tier not in ("host", "nvme"):
            raise PlanError(f"{self.cls.key}: unknown swap tier {self.tier!r}")
        if self.tier == "nvme" and self.action is not Action.CPU_SWAP:
            raise PlanError(f"{self.cls.key}: NVMe tier only applies to CPU swaps")
        if self.action is Action.RECOMPUTE and not self.cls.recomputable:
            raise PlanError(
                f"{self.cls.key}: recomputation only applies to activations "
                "(Section II-D)"
            )
        if self.action is Action.D2D_SWAP:
            if self.stripe is None:
                raise PlanError(f"{self.cls.key}: D2D swap entry needs a stripe plan")
            # Partial-tensor D2D is allowed: striping splits at byte
            # granularity, so a plan may park only part of a tensor
            # when importer spare is tight.
            if self.stripe.tensor_bytes > self.cls.size:
                raise PlanError(
                    f"{self.cls.key}: stripe covers {self.stripe.tensor_bytes} bytes, "
                    f"tensor instance is only {self.cls.size}"
                )
        elif self.stripe is not None:
            raise PlanError(f"{self.cls.key}: stripe plan without D2D action")

    @property
    def saved_bytes(self) -> int:
        """Peak bytes this entry removes from the owning device."""
        if self.action is Action.NONE:
            return 0
        if self.action is Action.D2D_SWAP and self.stripe is not None:
            return self.stripe.tensor_bytes * self.cls.instances
        return self.cls.peak_bytes


@dataclass
class MemorySavingPlan:
    """Complete plan for one training job."""

    device_map: List[int]  # stage -> GPU index
    entries: Dict[tuple, PlanEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.device_map)) != len(self.device_map):
            raise PlanError("device map assigns two stages to one GPU")

    def assign(self, entry: PlanEntry) -> None:
        self.entries[entry.cls.key] = entry

    def action_for(self, cls: TensorClass) -> Action:
        entry = self.entries.get(cls.key)
        return entry.action if entry is not None else Action.NONE

    def entry_for(self, cls: TensorClass) -> Optional[PlanEntry]:
        return self.entries.get(cls.key)

    def device_of(self, stage: int) -> int:
        if not 0 <= stage < len(self.device_map):
            raise PlanError(f"stage {stage} outside device map")
        return self.device_map[stage]

    # -- reporting (Table IV) ---------------------------------------------

    def saved_by_action(self) -> Dict[Action, int]:
        """Total peak bytes saved, per technique."""
        totals = {action: 0 for action in Action if action is not Action.NONE}
        for entry in self.entries.values():
            if entry.action is not Action.NONE:
                totals[entry.action] += entry.saved_bytes
        return totals

    def stages_by_action(self) -> Dict[Action, List[int]]:
        """Which stages each technique was applied to (Table IV rows)."""
        stages: Dict[Action, set] = {action: set() for action in Action}
        for entry in self.entries.values():
            stages[entry.action].add(entry.cls.stage)
        return {action: sorted(s) for action, s in stages.items()}

    def summary(self) -> str:
        lines = [f"device map: {self.device_map}"]
        saved = self.saved_by_action()
        total = sum(saved.values())
        for action, amount in saved.items():
            share = (100.0 * amount / total) if total else 0.0
            lines.append(f"  {action.value:<10} saves {amount / 2**30:8.1f} GiB ({share:4.1f}%)")
        return "\n".join(lines)


def empty_plan(n_stages: int, device_map: Optional[List[int]] = None) -> MemorySavingPlan:
    """A no-compaction plan with the in-order device mapping."""
    if device_map is None:
        device_map = list(range(n_stages))
    return MemorySavingPlan(device_map=device_map)


def validate_plan(plan: MemorySavingPlan, classes: List[TensorClass]) -> None:
    """Cross-check a plan against the job's tensor classes.

    Ensures every entry refers to a real class, D2D importers differ
    from exporters, and irreducible working state is untouched.
    """
    known = {cls.key: cls for cls in classes}
    for key, entry in plan.entries.items():
        cls = known.get(key)
        if cls is None:
            raise PlanError(f"plan entry {key} refers to an unknown tensor class")
        if cls.kind is TensorKind.WORKING_STATE and entry.action is not Action.NONE:
            raise PlanError(f"{key}: working parameters/gradients cannot be reduced")
        if entry.action is Action.D2D_SWAP and entry.stripe is not None:
            exporter = plan.device_of(cls.stage)
            if entry.stripe.exporter != exporter:
                raise PlanError(
                    f"{key}: stripe exporter {entry.stripe.exporter} is not the "
                    f"stage's device {exporter}"
                )
            if exporter in entry.stripe.importers:
                raise PlanError(f"{key}: a tensor cannot D2D-swap to its own device")

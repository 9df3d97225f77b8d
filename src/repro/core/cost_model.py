"""Per-tensor cost model for the three memory-saving techniques.

This is the component behind the paper's Table III: for every tensor
class it prices Recomputation (an extra forward pass on the compute
stream), GPU-CPU swap (a PCIe round trip), and D2D swap (a striped
NVLink round trip), and derives the *extra* overhead each would
impose given the tensor's live interval — a swap whose round trip
fits inside the interval is free (Section III-D, footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.striping import StripePlan, build_stripe_plan
from repro.errors import PlanError
from repro.graph.liveness import LiveInterval
from repro.graph.tensor import TensorClass
from repro.hardware.bandwidth import transfer_time
from repro.job import TrainingJob


@dataclass(frozen=True)
class TensorCosts:
    """Raw and effective costs of each technique for one tensor class."""

    cls_key: tuple
    live_interval: float
    recompute: Optional[float]    # None when not recomputable
    cpu_swap: float               # PCIe round trip
    d2d_swap: Optional[float]     # striped NVLink round trip; None if no plan

    @property
    def recompute_extra(self) -> Optional[float]:
        """Recomputation always occupies the compute stream."""
        return self.recompute

    @property
    def cpu_swap_extra(self) -> float:
        """Extra delay: round trip minus what the interval hides."""
        return max(0.0, self.cpu_swap - self.live_interval)

    @property
    def d2d_swap_extra(self) -> Optional[float]:
        if self.d2d_swap is None:
            return None
        return max(0.0, self.d2d_swap - self.live_interval)


class CostModel:
    """Prices memory-saving actions for one training job."""

    def __init__(
        self,
        job: TrainingJob,
        device_map: list,
        intervals: Dict[tuple, LiveInterval],
    ):
        self.job = job
        self.device_map = list(device_map)
        self.intervals = intervals
        self._topology = job.server.topology

    def live_interval(self, cls: TensorClass) -> float:
        measured = self.intervals.get(cls.key)
        return measured.mean if measured is not None else 0.0

    def recompute_cost(self, cls: TensorClass) -> Optional[float]:
        if not cls.recomputable:
            return None
        device = self.device_map[cls.stage]
        layer = self.job.model.layers[cls.layer]
        return self.job.layer_forward_time(layer, device)

    def cpu_swap_cost(self, cls: TensorClass) -> float:
        one_way = transfer_time(cls.size, self.job.server.pcie, lanes=1)
        return 2.0 * one_way

    def d2d_swap_cost(self, cls: TensorClass, stripe: StripePlan) -> float:
        return stripe.round_trip_time(self._topology)

    def candidate_stripe(
        self,
        cls: TensorClass,
        importer_budgets: Dict[int, int],
        striping: bool = True,
        tensor_bytes: Optional[int] = None,
    ) -> Optional[StripePlan]:
        """Build a stripe plan for this class within importer budgets.

        ``tensor_bytes`` below the class size requests a *partial*
        stripe: only that many bytes park remotely, the rest stays
        resident (striping is byte-granular, Section III-C).
        """
        exporter = self.device_map[cls.stage]
        budgets = {
            imp: budget for imp, budget in importer_budgets.items() if imp != exporter
        }
        size = cls.size if tensor_bytes is None else min(tensor_bytes, cls.size)
        if size <= 0:
            return None
        try:
            return build_stripe_plan(
                self._topology, exporter, budgets, size, striping=striping
            )
        except PlanError:
            return None

    def costs_for(
        self, cls: TensorClass, stripe: Optional[StripePlan] = None
    ) -> TensorCosts:
        return TensorCosts(
            cls_key=cls.key,
            live_interval=self.live_interval(cls),
            recompute=self.recompute_cost(cls),
            cpu_swap=self.cpu_swap_cost(cls),
            d2d_swap=self.d2d_swap_cost(cls, stripe) if stripe is not None else None,
        )

    def extra_overhead(self, cls: TensorClass, action: str) -> float:
        """Extra delay the currently-assigned action imposes.

        Used by the planner's refinement loop to pick which
        assignments to upgrade to D2D (Section III-D's filter step).
        """
        costs = self.costs_for(cls)
        if action == "recompute":
            extra = costs.recompute_extra
            return extra if extra is not None else 0.0
        if action == "cpu-swap":
            return costs.cpu_swap_extra
        return 0.0

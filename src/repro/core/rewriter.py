"""Rewriter: instrument the data-flow graph with memory-saving ops.

Takes the planner's tentative per-tensor assignments and produces an
:class:`InstrumentedProgram` — the validated plan plus the compute
program it rewrites (Fig. 5, step 4).  Validation enforces the
operator-dependency rules Section III-D lays out, and the
consolidation pass fuses recomputation over consecutive layers (the
paper's third observation: recomputing a contiguous run also frees
the intermediate boundary tensors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.plan import Action, MemorySavingPlan, PlanEntry, validate_plan
from repro.core.striping import StripePlan
from repro.errors import PlanError
from repro.graph.dataflow import Program, build_program
from repro.graph.tensor import TensorClass, TensorKind
from repro.job import TrainingJob

Assignment = Tuple[Action, Optional[StripePlan]]


@dataclass(frozen=True)
class InstrumentedProgram:
    """A compute program plus the plan that rewrites it."""

    job: TrainingJob
    program: Program
    plan: MemorySavingPlan


class Rewriter:
    """Builds validated plans from raw assignments."""

    def __init__(self, job: TrainingJob, classes: List[TensorClass]):
        self.job = job
        self.classes = classes
        self._by_key = {cls.key: cls for cls in classes}

    def instrument(
        self,
        assignments: Dict[tuple, Assignment],
        device_map: List[int],
        nvme_keys: Optional[set] = None,
    ) -> InstrumentedProgram:
        """Build a validated plan; ``nvme_keys`` spill those CPU swaps."""
        nvme_keys = nvme_keys or set()
        plan = MemorySavingPlan(device_map=list(device_map))
        for key, (action, stripe) in assignments.items():
            cls = self._by_key.get(key)
            if cls is None:
                raise PlanError(f"assignment for unknown tensor class {key}")
            if action is Action.NONE:
                continue
            tier = "nvme" if key in nvme_keys and action is Action.CPU_SWAP else "host"
            plan.assign(PlanEntry(cls=cls, action=action, stripe=stripe, tier=tier))
        validate_plan(plan, self.classes)
        program = build_program(self.job.stage_plan, self.job.schedule)
        return InstrumentedProgram(job=self.job, program=program, plan=plan)

    def consolidate_recompute(
        self, assignments: Dict[tuple, Assignment]
    ) -> Dict[tuple, Assignment]:
        """Fill single-layer gaps inside recompute runs.

        If layers ``l-1`` and ``l+1`` of a stage recompute but ``l``
        does not, recomputing ``l`` too costs one extra forward but
        removes a boundary tensor that would otherwise have to stay
        resident; the paper prefers consecutive recompute runs.
        """
        result = dict(assignments)
        by_stage: Dict[int, List[TensorClass]] = {}
        for cls in self.classes:
            if cls.kind is TensorKind.ACTIVATION:
                by_stage.setdefault(cls.stage, []).append(cls)
        for stage_classes in by_stage.values():
            stage_classes.sort(key=lambda cls: cls.layer)
            for previous, middle, following in zip(
                stage_classes, stage_classes[1:], stage_classes[2:]
            ):
                if (
                    self._is_recompute(result, previous)
                    and self._is_recompute(result, following)
                    and result.get(middle.key, (Action.NONE, None))[0] is Action.NONE
                ):
                    result[middle.key] = (Action.RECOMPUTE, None)
        return result

    @staticmethod
    def _is_recompute(assignments: Dict[tuple, Assignment], cls: TensorClass) -> bool:
        return assignments.get(cls.key, (Action.NONE, None))[0] is Action.RECOMPUTE

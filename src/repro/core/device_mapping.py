"""Device-mapping search (the paper's Figure 6 algorithm).

Inter-operator training is agnostic to *which* GPU hosts which stage,
but D2D swap is not: an overflowing stage must be NVLink-adjacent to
peers with spare memory, and on the asymmetric DGX-1 topology the
per-pair lane counts differ.  The search enumerates stage-to-device
mappings, assigns spare memory from light GPUs to neighbouring
overflowed GPUs, and scores each (mapping, assignment) pair by the
ratio of revenue (overflow bytes placed, weighted toward the most
pressured exporters) to cost (the maximal exporter D2D transfer
time) — higher is better (Fig. 6, line 22).

On symmetric (switched) topologies every mapping is equivalent, so
the search short-circuits to the identity mapping, as the paper
notes ("randomly maps stages to devices and aggressively uses all
NVLinks").

The assignment reads a mapping only through the lane counts between
each exporter's device and each importer's device (exporters have
overflow, importers have spare).  Mappings that agree on that
exporter x importer lane sub-matrix get identical assignments and
scores, and since only a strictly greater score replaces the best
candidate, the first mapping with a given sub-matrix is the only one
that can win.  The search therefore runs the assignment once per
distinct sub-matrix and skips repeats: on DGX-1 the paper's BERT-0.64
vectors (3 exporters, 5 importers) need 2,340 assignments for 40,320
mappings.  ``MappingResult.mappings_evaluated`` counts the mappings
enumerated, ``distinct_evaluations`` the assignments actually run.
The lane matrix is read from the topology once per search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.hardware.topology import Topology


@dataclass(frozen=True)
class MappingResult:
    """Outcome of the search."""

    device_map: List[int]                       # stage -> device
    score: float
    placed_fraction: float                      # overflow bytes with a home
    assignments: Dict[int, Dict[int, int]]      # exporter stage -> {importer stage: bytes}
    mappings_evaluated: int = 0                 # mappings enumerated
    distinct_evaluations: int = 0               # assignments actually run

    def importer_budget(self, importer_stage: int) -> int:
        """Total bytes assigned into one importing stage."""
        return sum(
            alloc.get(importer_stage, 0) for alloc in self.assignments.values()
        )


@dataclass
class _Candidate:
    score: float = -1.0
    placed: float = 0.0
    device_map: Optional[Tuple[int, ...]] = None
    assignments: Dict[int, Dict[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class _Evaluation:
    assignments: Dict[int, Dict[int, int]]
    placed_fraction: float
    weighted_revenue: float
    max_transfer_seconds: float


def _lane_matrix(topology: Topology) -> List[List[int]]:
    """``matrix[a][b]`` is ``topology.lanes(a, b)`` for every device pair."""
    n = topology.n_gpus
    return [[topology.lanes(a, b) for b in range(n)] for a in range(n)]


def assign_spare_memory(
    topology: Topology,
    device_map: Tuple[int, ...],
    overflow: List[int],
    spare: List[int],
) -> _Evaluation:
    """Spare-memory assignment for one fixed mapping (Fig. 6, assign_mem).

    Exporters claim importer spare in order of decreasing overflow,
    splitting each exporter's demand across its NVLink neighbours
    proportionally to lane counts (water-filling against remaining
    budgets).
    """
    return _assign(
        _lane_matrix(topology),
        topology.nvlink.sustained_bandwidth,
        device_map,
        overflow,
        spare,
    )


def _assign(
    lanes_between: List[List[int]],
    lane_bandwidth: float,
    device_map: Tuple[int, ...],
    overflow: List[int],
    spare: List[int],
) -> _Evaluation:
    n = len(device_map)
    remaining = {s: spare[s] for s in range(n) if spare[s] > 0}
    assignments: Dict[int, Dict[int, int]] = {}
    total_overflow = sum(overflow)
    placed_total = 0
    weighted_revenue = 0.0
    max_seconds = 0.0

    exporters = sorted(
        (s for s in range(n) if overflow[s] > 0), key=lambda s: -overflow[s]
    )
    for exporter in exporters:
        row = lanes_between[device_map[exporter]]
        lanes = {
            imp: row[device_map[imp]]
            for imp in remaining
            if row[device_map[imp]] > 0
        }
        if not lanes:
            continue
        demand = overflow[exporter]
        alloc: Dict[int, int] = {}
        # Water-fill: repeat proportional splitting over unclamped
        # importers until demand is placed or budgets exhaust.
        active = dict(lanes)
        while demand > 0 and active:
            total_lanes = sum(active.values())
            progressed = False
            for imp, lane in sorted(active.items()):
                slack = remaining[imp] - alloc.get(imp, 0)
                take = min(slack, max(1, (demand * lane) // total_lanes), demand)
                if take <= 0:
                    continue
                alloc[imp] = alloc.get(imp, 0) + take
                demand -= take
                progressed = True
                if demand <= 0:
                    break
            active = {
                imp: lane
                for imp, lane in active.items()
                if remaining[imp] - alloc.get(imp, 0) > 0
            }
            if not progressed:
                break
        if not alloc:
            continue
        assignments[exporter] = alloc
        for imp, amount in alloc.items():
            remaining[imp] -= amount
            if remaining[imp] <= 0:
                del remaining[imp]
        placed = sum(alloc.values())
        placed_total += placed
        # Revenue weights placed bytes by the exporter's share of the
        # total pressure, so relieving the most-overflowed stage wins.
        weight = overflow[exporter] / total_overflow if total_overflow else 0.0
        weighted_revenue += placed * (1.0 + weight)
        seconds = max(
            amount / (lanes[imp] * lane_bandwidth)
            for imp, amount in alloc.items()
        )
        max_seconds = max(max_seconds, seconds)

    placed_fraction = placed_total / total_overflow if total_overflow else 1.0
    return _Evaluation(
        assignments=assignments,
        placed_fraction=placed_fraction,
        weighted_revenue=weighted_revenue,
        max_transfer_seconds=max_seconds,
    )


def _score(evaluation: _Evaluation) -> float:
    """Revenue-to-cost ratio (Fig. 6, line 22)."""
    if evaluation.weighted_revenue <= 0:
        return 0.0
    return evaluation.weighted_revenue / (evaluation.max_transfer_seconds + 1e-3)


def search_device_mapping(
    topology: Topology,
    overflow: List[int],
    spare: List[int],
    mode: str = "auto",
    max_mappings: Optional[int] = None,
) -> MappingResult:
    """Find the stage-to-device mapping that best serves D2D swap.

    ``overflow[s]``/``spare[s]`` are the stage's demand beyond / slack
    under device capacity.  ``mode`` is ``"exact"`` (full
    enumeration), ``"greedy"`` (anchored enumeration fixing stage 0),
    or ``"auto"`` (exact for <= 8 devices, greedy beyond).
    """
    n = topology.n_gpus
    if len(overflow) != n or len(spare) != n:
        raise MappingError("overflow/spare vectors must match device count")
    if mode not in ("auto", "exact", "greedy"):
        raise MappingError(f"unknown search mode {mode!r}")

    identity = tuple(range(n))
    if topology.is_symmetric or not any(o > 0 for o in overflow):
        evaluation = assign_spare_memory(topology, identity, overflow, spare)
        return MappingResult(
            device_map=list(identity),
            score=_score(evaluation),
            placed_fraction=evaluation.placed_fraction,
            assignments=evaluation.assignments,
            mappings_evaluated=1,
            distinct_evaluations=1,
        )

    if mode == "auto":
        mode = "exact" if n <= 8 else "greedy"

    lanes_between = _lane_matrix(topology)
    lane_bandwidth = topology.nvlink.sustained_bandwidth
    exporters = [s for s in range(n) if overflow[s] > 0]
    importers = [s for s in range(n) if spare[s] > 0]
    # A mapping whose exporter x importer lane sub-matrix was already
    # seen repeats that earlier evaluation exactly; under the strict
    # ">" below it can never win, so it is skipped.
    seen = set()
    best = _Candidate()
    evaluated = 0
    for device_map in _mappings(n, mode, max_mappings):
        evaluated += 1
        rows = [lanes_between[device_map[e]] for e in exporters]
        cols = [device_map[i] for i in importers]
        key = tuple([row[c] for row in rows for c in cols])
        if key in seen:
            continue
        seen.add(key)
        evaluation = _assign(lanes_between, lane_bandwidth, device_map, overflow, spare)
        score = _score(evaluation)
        if score > best.score:
            best = _Candidate(
                score=score,
                placed=evaluation.placed_fraction,
                device_map=device_map,
                assignments=evaluation.assignments,
            )
    if best.device_map is None:
        raise MappingError("no feasible device mapping found")
    return MappingResult(
        device_map=list(best.device_map),
        score=best.score,
        placed_fraction=best.placed,
        assignments=best.assignments,
        mappings_evaluated=evaluated,
        distinct_evaluations=len(seen),
    )


def _mappings(n: int, mode: str, max_mappings: Optional[int]):
    if mode == "exact":
        source = itertools.permutations(range(n))
    else:
        # Greedy mode anchors stage 0 on device 0 — DGX-class
        # topologies are near-symmetric under relabeling, so this
        # prunes a factor of n while rarely losing the optimum.
        source = (
            (0,) + rest for rest in itertools.permutations(range(1, n))
        )
    for count, mapping in enumerate(source):
        if max_mappings is not None and count >= max_mappings:
            return
        yield mapping

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

The search is exact: it returns the first mapping, in
``itertools.permutations`` order, with the largest score.  The
assignment reads a mapping only through the lane counts between each
exporter's device and each importer's device (exporters have
overflow, importers have spare), so mappings that agree on that
exporter x importer lane sub-matrix score the same.  Three mechanisms
keep the search small without changing its answer:

* **Symmetry.**  A relabelling of the GPUs that preserves every lane
  count (an automorphism of the lane matrix) maps each mapping to one
  with the same sub-matrix.  The first best mapping therefore puts
  stage 0 on the smallest device of its orbit, and the exact search
  enumerates only those mappings.  DGX-1's cube-mesh is
  vertex-transitive, so stage 0 sits on device 0 alone: 5,040
  mappings instead of 40,320, reaching every distinct sub-matrix.
  Greedy mode is the same enumeration with stage 0 pinned to device
  0 on any topology.
* **Shared prefixes.**  Exporters claim spare one at a time, in order
  of decreasing overflow, and each claim depends only on its own
  sub-matrix row and the budgets the earlier claims left.  The
  distinct sub-matrices form a trie of exporter rows, and the search
  walks it, stepping the assignment once per trie node rather than
  once per exporter of every sub-matrix.
* **Bound.**  At each node the score is bounded from above by the
  revenue so far plus the remaining exporters' demands poured, in
  order, into the importers' remaining budget, over the maximal
  transfer time so far (which can only grow).  Children are visited
  by falling bound, and a subtree whose bound is below the best score
  is skipped; a small relative margin keeps rounding from ever
  pruning a tie, and ties go to the lexicographically first mapping.

``MappingResult.mappings_evaluated`` is the size of the space the
search covers (n! exact, (n-1)! greedy), ``distinct_evaluations`` the
number of distinct sub-matrices in it (2,340 for the paper's
BERT-0.64 vectors on DGX-1), and ``bound_pruned`` how many of those
never had their assignment run to the end because a bound proved them
worse than the best.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.errors import MappingError
from repro.hardware.topology import Topology

# A subtree is skipped only when its bound is below the best score by
# more than this relative margin, so float rounding never prunes a tie.
_BOUND_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class MappingResult:
    """Outcome of the search."""

    device_map: List[int]                       # stage -> device
    score: float
    placed_fraction: float                      # overflow bytes with a home
    assignments: Dict[int, Dict[int, int]]      # exporter stage -> {importer stage: bytes}
    mappings_evaluated: int = 0                 # size of the space covered
    distinct_evaluations: int = 0               # distinct lane sub-matrices in it
    bound_pruned: int = 0                       # sub-matrices cut short by the bound

    def importer_budget(self, importer_stage: int) -> int:
        """Total bytes assigned into one importing stage."""
        return sum(
            alloc.get(importer_stage, 0) for alloc in self.assignments.values()
        )


@dataclass(frozen=True)
class _Evaluation:
    assignments: Dict[int, Dict[int, int]]
    placed_fraction: float
    weighted_revenue: float
    max_transfer_seconds: float


class _Fill(NamedTuple):
    """Assignment state after a prefix of the exporters."""

    left: Tuple[int, ...]                            # importer budgets, in importer order
    allocs: Tuple[Tuple[int, Dict[int, int]], ...]   # (exporter stage, {importer stage: bytes})
    placed: int
    revenue: float
    seconds: float


class _Demands:
    """Who exports and imports, in the order the assignment visits them."""

    def __init__(self, overflow: Sequence[int], spare: Sequence[int]):
        n = len(overflow)
        self.total = sum(overflow)
        self.exporters = sorted(
            (s for s in range(n) if overflow[s] > 0), key=lambda s: -overflow[s]
        )
        self.importers = [s for s in range(n) if spare[s] > 0]
        self.demand = [overflow[e] for e in self.exporters]
        # Revenue weights placed bytes by the exporter's share of the
        # total pressure, so relieving the most-overflowed stage wins.
        self.gain = [
            1.0 + (overflow[e] / self.total if self.total else 0.0)
            for e in self.exporters
        ]
        self.start = _Fill(tuple(spare[i] for i in self.importers), (), 0, 0.0, 0.0)

    def evaluation(self, fill: _Fill) -> _Evaluation:
        return _Evaluation(
            assignments=dict(fill.allocs),
            placed_fraction=fill.placed / self.total if self.total else 1.0,
            weighted_revenue=fill.revenue,
            max_transfer_seconds=fill.seconds,
        )


def _lane_matrix(topology: Topology) -> List[List[int]]:
    """``matrix[a][b]`` is ``topology.lanes(a, b)`` for every device pair."""
    n = topology.n_gpus
    return [[topology.lanes(a, b) for b in range(n)] for a in range(n)]


def _step(
    fill: _Fill,
    demands: _Demands,
    k: int,
    row: Sequence[int],
    lane_bandwidth: float,
) -> _Fill:
    """Exporter ``k`` (in visiting order) claims spare (Fig. 6, assign_mem).

    ``row[j]`` is the lane count from the exporter's device to importer
    ``demands.importers[j]``'s device.  The demand is split across the
    reachable importers proportionally to lane counts, water-filling
    against the remaining budgets.
    """
    lanes: Dict[int, int] = {}
    remaining: Dict[int, int] = {}
    for imp, lane, left in zip(demands.importers, row, fill.left):
        if lane > 0 and left > 0:
            lanes[imp] = lane
            remaining[imp] = left
    if not lanes:
        return fill
    demand = demands.demand[k]
    alloc: Dict[int, int] = {}
    # Water-fill: repeat proportional splitting over unclamped
    # importers until demand is placed or budgets exhaust.  Importers
    # are in stage order, so each round visits them sorted.
    active = lanes
    while demand > 0 and active:
        total_lanes = sum(active.values())
        progressed = False
        for imp, lane in active.items():
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
        return fill
    placed = sum(alloc.values())
    seconds = max(
        amount / (lanes[imp] * lane_bandwidth) for imp, amount in alloc.items()
    )
    return _Fill(
        left=tuple(
            left - alloc.get(imp, 0)
            for imp, left in zip(demands.importers, fill.left)
        ),
        allocs=fill.allocs + ((demands.exporters[k], alloc),),
        placed=fill.placed + placed,
        revenue=fill.revenue + placed * demands.gain[k],
        seconds=max(fill.seconds, seconds),
    )


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
    lanes_between = _lane_matrix(topology)
    lane_bandwidth = topology.nvlink.sustained_bandwidth
    demands = _Demands(overflow, spare)
    cols = [device_map[i] for i in demands.importers]
    fill = demands.start
    for k, exporter in enumerate(demands.exporters):
        row = lanes_between[device_map[exporter]]
        fill = _step(fill, demands, k, [row[c] for c in cols], lane_bandwidth)
    return demands.evaluation(fill)


def _ratio(revenue: float, seconds: float) -> float:
    if revenue <= 0:
        return 0.0
    return revenue / (seconds + 1e-3)


def _score(evaluation: _Evaluation) -> float:
    """Revenue-to-cost ratio (Fig. 6, line 22)."""
    return _ratio(evaluation.weighted_revenue, evaluation.max_transfer_seconds)


def _orbit_minima(lanes_between: List[List[int]]) -> List[int]:
    """Devices that are the smallest of their orbit under the lane
    matrix's automorphisms (relabellings that keep every lane count)."""
    n = len(lanes_between)
    profile = [sorted(row) for row in lanes_between]

    def maps_to(a: int, b: int) -> bool:
        # Backtrack for an automorphism sending a to b, fixing the
        # images of a, then every other device in order.
        order = [a] + [x for x in range(n) if x != a]
        image: Dict[int, int] = {}

        def extend(depth: int) -> bool:
            if depth == n:
                return True
            x = order[depth]
            for y in (b,) if depth == 0 else range(n):
                if y in image.values() or profile[x] != profile[y]:
                    continue
                if all(
                    lanes_between[x][z] == lanes_between[y][w]
                    and lanes_between[z][x] == lanes_between[w][y]
                    for z, w in image.items()
                ):
                    image[x] = y
                    if extend(depth + 1):
                        return True
                    del image[x]
            return False

        return extend(0)

    minima: List[int] = []
    covered = set()
    for d in range(n):
        if d in covered:
            continue
        minima.append(d)
        covered.update(t for t in range(d + 1, n) if t not in covered and maps_to(d, t))
    return minima


def _sub_matrices(
    lanes_between: List[List[int]],
    demands: _Demands,
    firsts: Sequence[int],
) -> Dict[bytes, bytes]:
    """The distinct sub-matrices of the mappings whose stage 0 sits on
    one of ``firsts``, each with the first such mapping in
    ``itertools.permutations`` order, in the order they are first met.

    A sub-matrix is flattened row by row, one row per exporter in
    visiting order and one column per importer.  Lane counts and
    device indices fit in a byte, and bytes keep the 2,340 DGX-1 keys
    small; they compare like the tuples they stand for.
    """
    n = len(lanes_between)
    first_seen: Dict[bytes, bytes] = {}
    for d in firsts:
        rest = [x for x in range(n) if x != d]
        for tail in itertools.permutations(rest):
            device_map = (d,) + tail
            cols = [device_map[i] for i in demands.importers]
            rows = [lanes_between[device_map[e]] for e in demands.exporters]
            key = bytes([row[c] for row in rows for c in cols])
            if key not in first_seen:
                first_seen[key] = bytes(device_map)
    return first_seen


def search_device_mapping(
    topology: Topology,
    overflow: List[int],
    spare: List[int],
    mode: str = "auto",
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
    demands = _Demands(overflow, spare)
    if mode == "exact":
        firsts, covered = _orbit_minima(lanes_between), math.factorial(n)
    else:
        # Greedy mode anchors stage 0 on device 0 — DGX-class
        # topologies are near-symmetric under relabeling, so this
        # prunes a factor of n while rarely losing the optimum.
        firsts, covered = [0], math.factorial(n - 1)
    first_seen = _sub_matrices(lanes_between, demands, firsts)
    width = len(demands.importers)
    last = len(demands.exporters) - 1

    def bound(fill: _Fill, k: int) -> float:
        # Exporters k.. place at most their demand each and at most
        # the budget left in total; their weights fall in visiting
        # order, so pouring greedily in order maximises revenue.
        budget = sum(fill.left)
        revenue = fill.revenue
        for demand, gain in zip(demands.demand[k:], demands.gain[k:]):
            if budget <= 0:
                break
            take = min(demand, budget)
            revenue += take * gain
            budget -= take
        return _ratio(revenue, fill.seconds)

    best_score = -1.0
    best_map = bytes(identity)
    best_fill = demands.start
    pruned = 0

    def visit(keys, fill: _Fill, k: int) -> None:
        # ``keys`` share their first k rows, whose assignment ``fill``
        # holds; group them by row k, the trie's next level.
        nonlocal best_score, best_map, best_fill, pruned
        children: Dict[bytes, List[bytes]] = {}
        for key in keys:
            children.setdefault(key[k * width:(k + 1) * width], []).append(key)
        if k == last:
            for row, (key,) in children.items():
                child = _step(fill, demands, k, row, lane_bandwidth)
                score = _ratio(child.revenue, child.seconds)
                first = first_seen[key]
                if score > best_score or (score == best_score and first < best_map):
                    best_score, best_map, best_fill = score, first, child
            return
        staged = []
        for row, group in children.items():
            child = _step(fill, demands, k, row, lane_bandwidth)
            staged.append((bound(child, k + 1), child, group))
        staged.sort(key=lambda entry: -entry[0])
        for limit, child, group in staged:
            if limit * _BOUND_SLACK < best_score:
                pruned += len(group)
            else:
                visit(group, child, k + 1)

    visit(first_seen, demands.start, 0)
    evaluation = demands.evaluation(best_fill)
    return MappingResult(
        device_map=list(best_map),
        score=best_score,
        placed_fraction=evaluation.placed_fraction,
        assignments=evaluation.assignments,
        mappings_evaluated=covered,
        distinct_evaluations=len(first_seen),
        bound_pruned=pruned,
    )

"""Replica placement: carve a server into DP replica sub-servers.

A hybrid DP x PP run splits the server's GPUs into ``dp`` equal
replica groups; each group runs the full pipeline and the groups
all-reduce gradients stage-by-stage.  Where the cut falls matters on
an asymmetric topology: the all-reduce rings of stage groups should
sit on high-lane pairs, and adjacent pipeline stages inside a
replica should keep their activation traffic on NVLink.

The search scores a handful of candidate layouts (contiguous blocks,
strided, NVLink islands) with the analytic collective model plus the
intra-replica point-to-point cost, both priced on reference message
sizes — cheap enough to run inside the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hardware.server import Server
from repro.hardware.topology import Topology
from repro.collectives.cost import all_reduce_time, pair_transfer_time
from repro.collectives.schedule import islands

# Reference message sizes for scoring layouts: a typical gradient
# bucket and a typical stage-boundary activation tensor.
REFERENCE_ALLREDUCE_BYTES = 64 * 1024 * 1024
REFERENCE_BOUNDARY_BYTES = 16 * 1024 * 1024

PLACEMENT_MODES = ("auto", "contiguous", "strided", "islands")


@dataclass(frozen=True)
class ReplicaPlacement:
    """A chosen layout: ``groups[r][s]`` is replica ``r``'s stage-``s`` GPU."""

    groups: Tuple[Tuple[int, ...], ...]
    mode: str
    allreduce_score: float     # analytic seconds, reference bucket, all stages
    pipeline_score: float      # analytic seconds, adjacent-stage p2p

    @property
    def dp(self) -> int:
        return len(self.groups)

    @property
    def stages_per_replica(self) -> int:
        return len(self.groups[0])

    def stage_group(self, stage: int) -> Tuple[int, ...]:
        """The devices that all-reduce stage ``stage``'s gradients."""
        return tuple(group[stage] for group in self.groups)

    # The placement view :func:`repro.parallel.sync.dp_sync_plane`
    # reads: one tensor rank, ``pp`` stages per replica, and each
    # stage's DP group is its stage group.
    tp = 1

    @property
    def pp(self) -> int:
        return self.stages_per_replica

    def dp_group(self, tp_rank: int, stage: int) -> Tuple[int, ...]:
        return self.stage_group(stage)

    @property
    def score(self) -> float:
        return self.allreduce_score + self.pipeline_score

    @property
    def canonical_key(self) -> Tuple:
        """Total order for deterministic tie-breaking.

        Equal scores resolve alphabetically by mode, then by the group
        tuple — matching the historical first-wins scan over
        ``sorted(layouts)`` while making the preference explicit.
        """
        return (self.score, self.mode, self.groups)


def _candidate_layouts(topology: Topology, dp: int
                       ) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
    """Layout candidates by mode name."""
    n = topology.n_gpus
    size = n // dp
    devices = list(range(n))
    layouts: Dict[str, Tuple[Tuple[int, ...], ...]] = {
        "contiguous": tuple(
            tuple(devices[r * size:(r + 1) * size]) for r in range(dp)
        ),
        "strided": tuple(
            tuple(devices[r + dp * s] for s in range(size)) for r in range(dp)
        ),
    }
    if topology.kind == "direct":
        parts = islands(topology, tuple(devices))
        if len(parts) == dp and all(len(part) == size for part in parts):
            layouts["islands"] = parts
    return layouts


def _score_layout(topology: Topology,
                  groups: Tuple[Tuple[int, ...], ...]) -> Tuple[float, float]:
    size = len(groups[0])
    allreduce = 0.0
    if len(groups) > 1:
        for stage in range(size):
            stage_group = tuple(group[stage] for group in groups)
            allreduce += all_reduce_time(
                topology, stage_group, REFERENCE_ALLREDUCE_BYTES, "auto")
    pipeline = 0.0
    for group in groups:
        for stage in range(size - 1):
            pipeline += pair_transfer_time(
                topology, group[stage], group[stage + 1],
                REFERENCE_BOUNDARY_BYTES)
    return allreduce, pipeline


def replica_placement(topology: Topology, dp: int,
                      mode: str = "auto") -> ReplicaPlacement:
    """Pick the replica layout for ``dp``-way data parallelism."""
    if mode not in PLACEMENT_MODES:
        raise ConfigurationError(
            f"unknown placement mode {mode!r}; expected one of {PLACEMENT_MODES}")
    if dp < 1:
        raise ConfigurationError(f"data-parallel degree must be >= 1, got {dp}")
    n = topology.n_gpus
    if n % dp != 0:
        raise ConfigurationError(
            f"data-parallel degree {dp} does not divide {n} GPUs")
    size = n // dp
    if dp == 1:
        groups = (tuple(range(n)),)
        allreduce, pipeline = _score_layout(topology, groups)
        return ReplicaPlacement(groups=groups, mode="contiguous",
                                allreduce_score=allreduce,
                                pipeline_score=pipeline)
    if size < 2:
        raise ConfigurationError(
            f"hybrid replicas need >= 2 pipeline stages, got {size} "
            f"(dp={dp} on {n} GPUs)")
    layouts = _candidate_layouts(topology, dp)
    if mode != "auto":
        if mode not in layouts:
            raise ConfigurationError(
                f"placement mode {mode!r} unavailable on this topology "
                f"(candidates: {sorted(layouts)})")
        layouts = {mode: layouts[mode]}
    candidates = []
    for name in sorted(layouts):
        groups = layouts[name]
        allreduce, pipeline = _score_layout(topology, groups)
        candidates.append(ReplicaPlacement(groups=groups, mode=name,
                                           allreduce_score=allreduce,
                                           pipeline_score=pipeline))
    # min() over the canonical key: score ties resolve to the same
    # layout on every run and Python version.
    return min(candidates, key=lambda candidate: candidate.canonical_key)


def sub_server(server: Server, devices: Sequence[int]) -> Server:
    """The server a single replica sees: its GPUs, the induced topology.

    Direct topologies keep the lanes between retained pairs (device
    ids remapped to ``0..len-1``); switched fabrics shrink to the
    replica size with the same per-GPU lane budget.  Host memory is
    divided proportionally — replicas share the host — while the
    PCIe and NVMe specs carry over unchanged.
    """
    devices = tuple(devices)
    # A single-GPU carve-out is a valid degenerate replica (a TP rank
    # running a one-stage pipeline); its induced topology has no lanes.
    if len(devices) < 1:
        raise ConfigurationError(
            f"a replica needs >= 1 GPU, got {devices}")
    if len(set(devices)) != len(devices):
        raise ConfigurationError(f"replica devices must be distinct: {devices}")
    for device in devices:
        if not 0 <= device < server.n_gpus:
            raise ConfigurationError(
                f"device {device} outside server ({server.n_gpus} GPUs)")
    topology = server.topology
    if topology.kind == "switched":
        induced = Topology(n_gpus=len(devices), kind="switched",
                           nvlink=topology.nvlink,
                           lane_budget=topology.lane_budget)
    else:
        index = {device: local for local, device in enumerate(devices)}
        kept = set(devices)
        adjacency = {}
        for pair, count in topology.adjacency.items():
            a, b = tuple(pair)
            if a in kept and b in kept:
                adjacency[frozenset((index[a], index[b]))] = count
        induced = Topology(n_gpus=len(devices), kind="direct",
                           nvlink=topology.nvlink,
                           lane_budget=topology.lane_budget,
                           adjacency=adjacency)
    share = max(1, server.host.memory_bytes * len(devices) // server.n_gpus)
    host = replace(server.host, memory_bytes=share)
    label = ",".join(str(device) for device in devices)
    return Server(
        name=f"{server.name}[{label}]",
        gpus=[server.gpus[device] for device in devices],
        topology=induced,
        host=host,
        pcie=server.pcie,
        nvme=server.nvme,
    )

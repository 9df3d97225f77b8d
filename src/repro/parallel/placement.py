"""Placements: which GPU runs each replica's pipeline stages.

A :class:`ClusterPlacement` is the one placement type of the
TP x DP x PP cube: ``chains[r][t][s]`` names the GPU of replica ``r``,
tensor rank ``t``, pipeline stage ``s``.
:func:`~repro.parallel.cluster.cluster_placement` searches it over a
cluster; :func:`replica_placement` here is the single-server DP x PP
policy, returning a tp=1 placement.

Where the replica cut falls matters on an asymmetric topology: the
all-reduce rings of stage groups should sit on high-lane pairs, and
adjacent pipeline stages inside a replica should keep their
activation traffic on NVLink.  Both searches score their candidate
layouts with :func:`score_layout` — the analytic collective model plus
the intra-chain point-to-point cost, priced on reference message
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
CLUSTER_PLACEMENT_MODES = ("auto", "packed", "spread")

_MODE_RANK = {mode: rank for rank, mode in
              enumerate(CLUSTER_PLACEMENT_MODES[1:])}

Chains = Tuple[Tuple[Tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class ClusterPlacement:
    """``chains[r][t][s]`` is the global GPU of replica ``r``,
    TP rank ``t``, pipeline stage ``s``."""

    chains: Chains
    mode: str
    tp_score: float            # analytic seconds, reference TP all-reduces
    allreduce_score: float     # analytic seconds, reference DP buckets
    pipeline_score: float      # analytic seconds, adjacent-stage p2p
    stage_major: bool = True   # within-block assignment (TP-tight?)

    @property
    def dp(self) -> int:
        return len(self.chains)

    @property
    def tp(self) -> int:
        return len(self.chains[0])

    @property
    def pp(self) -> int:
        return len(self.chains[0][0])

    def chain(self, replica: int, tp_rank: int) -> Tuple[int, ...]:
        return self.chains[replica][tp_rank]

    def tp_group(self, replica: int, stage: int) -> Tuple[int, ...]:
        """Devices holding replica ``replica``'s stage-``stage`` shards."""
        return tuple(self.chains[replica][t][stage] for t in range(self.tp))

    def dp_group(self, tp_rank: int, stage: int) -> Tuple[int, ...]:
        """Devices that all-reduce the (tp_rank, stage) gradient shard."""
        return tuple(self.chains[r][tp_rank][stage] for r in range(self.dp))

    @property
    def score(self) -> float:
        return self.tp_score + self.allreduce_score + self.pipeline_score

    @property
    def canonical_key(self) -> Tuple:
        """Total order used to break score ties deterministically.

        Equal-scored layouts resolve by mode (packed before spread),
        then within-block assignment (stage-major before chain-major),
        then the chain tuple itself — the same preference order the
        historical first-wins scan encoded implicitly, but stable by
        construction across runs and Python versions.
        """
        return (
            self.score,
            _MODE_RANK.get(self.mode, len(_MODE_RANK)),
            0 if self.stage_major else 1,
            self.chains,
        )


def score_layout(topology, chains: Chains) -> Tuple[float, float, float]:
    """(TP, DP all-reduce, pipeline) analytic seconds of a layout."""
    dp, tp = len(chains), len(chains[0])
    pp = len(chains[0][0])
    tp_seconds = 0.0
    if tp > 1:
        for r in range(dp):
            for s in range(pp):
                group = tuple(chains[r][t][s] for t in range(tp))
                tp_seconds += all_reduce_time(
                    topology, group, REFERENCE_BOUNDARY_BYTES, "auto")
    allreduce = 0.0
    if dp > 1:
        for t in range(tp):
            for s in range(pp):
                group = tuple(chains[r][t][s] for r in range(dp))
                allreduce += all_reduce_time(
                    topology, group, REFERENCE_ALLREDUCE_BYTES, "auto")
    pipeline = 0.0
    for replica in chains:
        for chain in replica:
            for s in range(pp - 1):
                pipeline += pair_transfer_time(
                    topology, chain[s], chain[s + 1], REFERENCE_BOUNDARY_BYTES)
    return tp_seconds, allreduce, pipeline


def replica_size(n_gpus: int, dp: int) -> int:
    """GPUs per replica when ``dp`` replicas split ``n_gpus`` evenly.

    Every replica of a ``dp > 1`` split is a pipeline of >= 2 stages.
    """
    if dp < 1:
        raise ConfigurationError(f"data-parallel degree must be >= 1, got {dp}")
    if n_gpus % dp != 0:
        raise ConfigurationError(
            f"data-parallel degree {dp} does not divide {n_gpus} GPUs")
    size = n_gpus // dp
    if dp > 1 and size < 2:
        raise ConfigurationError(
            f"hybrid replicas need >= 2 pipeline stages, got {size} "
            f"(dp={dp} on {n_gpus} GPUs)")
    return size


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


def replica_placement(topology: Topology, dp: int,
                      mode: str = "auto") -> ClusterPlacement:
    """Pick the tp=1 layout of ``dp`` replicas over one server.

    ``chains[r][0]`` is replica ``r``'s pipeline.  Equal scores resolve
    alphabetically by mode, then by the group tuple.
    """
    if mode not in PLACEMENT_MODES:
        raise ConfigurationError(
            f"unknown placement mode {mode!r}; expected one of {PLACEMENT_MODES}")
    replica_size(topology.n_gpus, dp)
    layouts = _candidate_layouts(topology, dp)
    if dp == 1:
        mode = "contiguous"       # every layout is the whole server
    if mode != "auto":
        if mode not in layouts:
            raise ConfigurationError(
                f"placement mode {mode!r} unavailable on this topology "
                f"(candidates: {sorted(layouts)})")
        layouts = {mode: layouts[mode]}
    candidates = []
    for name, groups in layouts.items():
        chains = tuple((group,) for group in groups)
        tp_s, ar_s, pipe_s = score_layout(topology, chains)
        candidates.append(ClusterPlacement(
            chains=chains, mode=name, tp_score=tp_s, allreduce_score=ar_s,
            pipeline_score=pipe_s))
    return min(candidates, key=lambda placement: (
        placement.score, placement.mode, placement.chains))


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

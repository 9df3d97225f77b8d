"""Interconnect link specifications.

A :class:`LinkSpec` describes one physical lane type (one NVLink 2.0
brick, one PCIe 3.0 x16 slot, ...).  Effective throughput for a given
message size is computed in :mod:`repro.hardware.bandwidth`; the specs
here carry the peak bandwidth, a per-transfer setup latency, and a
sustained-efficiency factor calibrated against the paper's Figure 4
measurements (PCIe ~11.7 GB/s, 2 NVLinks ~45 GB/s, 6 NVLinks
~146 GB/s unidirectional).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GBps, US


class LinkType(enum.Enum):
    """Kinds of point-to-point lanes in a server or cluster."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    NVME = "nvme"
    FABRIC = "fabric"


@dataclass(frozen=True)
class LinkSpec:
    """One physical lane.

    ``peak_bandwidth``: vendor peak, unidirectional, bytes/s.
    ``efficiency``: sustained fraction of peak achievable for large
    transfers (protocol overhead, flow control).
    ``latency``: per-transfer setup cost in seconds; this produces the
    low-bandwidth ramp for small messages in Figure 4.
    """

    link_type: LinkType
    peak_bandwidth: float
    efficiency: float
    latency: float

    def __post_init__(self) -> None:
        if self.peak_bandwidth <= 0:
            raise ConfigurationError("link peak bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ConfigurationError("link efficiency must be in (0, 1]")
        if self.latency < 0:
            raise ConfigurationError("link latency must be non-negative")

    @property
    def sustained_bandwidth(self) -> float:
        """Large-message unidirectional bandwidth in bytes/s."""
        return self.peak_bandwidth * self.efficiency


# One NVLink 2.0 brick: 25 GB/s peak per direction.  At 0.97
# efficiency, two bricks sustain ~48.5 GB/s and six ~145.5 GB/s,
# matching the paper's 45 / 146 GB/s measurements.
NVLINK2 = LinkSpec(
    link_type=LinkType.NVLINK,
    peak_bandwidth=25 * GBps,
    efficiency=0.97,
    latency=10 * US,
)

# NVLink 3.0 brick (A100 generation): same per-brick data rate as
# NVLink 2.0 in the unidirectional accounting we use; the DGX-2-class
# machine differs by *topology* (symmetric crossbar), not lane speed.
NVLINK3 = LinkSpec(
    link_type=LinkType.NVLINK,
    peak_bandwidth=25 * GBps,
    efficiency=0.97,
    latency=8 * US,
)

# PCIe 3.0 x16: 15.75 GB/s raw; sustained ~11.7 GB/s, the paper's
# GPU-CPU swap bandwidth.
PCIE3_X16 = LinkSpec(
    link_type=LinkType.PCIE,
    peak_bandwidth=15.75 * GBps,
    efficiency=0.745,
    latency=25 * US,
)


# Inter-node fabrics.  Peak bandwidth is per NIC lane, unidirectional;
# the per-transfer setup latency is dominated by the network round
# trip rather than DMA engine start-up, so fabrics ramp to their
# sustained bandwidth at much larger message sizes than NVLink —
# which is exactly why hierarchical collectives keep bulk traffic
# inside the server and cross the fabric once per chunk position.

# InfiniBand EDR, 100 Gb/s per port (~12.5 GB/s raw).
IB_EDR = LinkSpec(
    link_type=LinkType.FABRIC,
    peak_bandwidth=12.5 * GBps,
    efficiency=0.92,
    latency=5 * US,
)

# InfiniBand HDR, 200 Gb/s per port (~25 GB/s raw): the p4d/DGX-A100
# generation fabric.
IB_HDR = LinkSpec(
    link_type=LinkType.FABRIC,
    peak_bandwidth=25 * GBps,
    efficiency=0.92,
    latency=5 * US,
)

# 100 GbE with RoCE-style transport: same raw rate as EDR but lower
# sustained efficiency and a far higher per-message setup cost.
ETH_100G = LinkSpec(
    link_type=LinkType.FABRIC,
    peak_bandwidth=12.5 * GBps,
    efficiency=0.85,
    latency=30 * US,
)

FABRICS = {"ib-edr": IB_EDR, "ib-hdr": IB_HDR, "eth-100g": ETH_100G}

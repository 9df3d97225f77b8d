"""Message-size-dependent effective bandwidth.

Reproduces the behaviour measured in the paper's Figure 4: effective
bandwidth ramps up with message size (per-transfer latency dominates
small messages) and saturates at the sustained aggregate bandwidth of
the lanes used.  Striping across ``n`` parallel lanes multiplies the
saturated bandwidth but not the setup latency.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.links import LinkSpec


def transfer_time(size_bytes: int, link: LinkSpec, lanes: int = 1) -> float:
    """Seconds to move ``size_bytes`` across ``lanes`` parallel lanes.

    The transfer is modelled as one setup latency plus streaming at
    the aggregate sustained bandwidth.  A zero-byte transfer still
    pays the setup latency (a real cudaMemcpyAsync does too).
    """
    if size_bytes < 0:
        raise ConfigurationError("transfer size must be non-negative")
    if lanes < 1:
        raise ConfigurationError("lane count must be >= 1")
    aggregate = link.sustained_bandwidth * lanes
    return link.latency + size_bytes / aggregate


def effective_bandwidth(size_bytes: int, link: LinkSpec, lanes: int = 1) -> float:
    """Observed bandwidth (bytes/s) for a transfer of ``size_bytes``.

    This is what Figure 4 plots: ``size / transfer_time``.
    """
    if size_bytes <= 0:
        raise ConfigurationError("effective bandwidth needs a positive size")
    return size_bytes / transfer_time(size_bytes, link, lanes)

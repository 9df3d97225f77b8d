"""Link specification and bandwidth-curve tests."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.bandwidth import effective_bandwidth, transfer_time
from repro.hardware.links import LinkSpec, LinkType, NVLINK2, PCIE3_X16
from repro.units import GB, GBps, KB


def test_nvlink_sustained_bandwidth_near_paper_value():
    # Two bricks ~45 GB/s, six bricks ~146 GB/s (paper Figure 4).
    two = 2 * NVLINK2.sustained_bandwidth
    six = 6 * NVLINK2.sustained_bandwidth
    assert 44 * GBps < two < 50 * GBps
    assert 140 * GBps < six < 150 * GBps


def test_pcie_sustained_bandwidth_near_paper_value():
    assert 11 * GBps < PCIE3_X16.sustained_bandwidth < 12.5 * GBps


def test_link_validation():
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkType.NVLINK, peak_bandwidth=0, efficiency=0.9, latency=0)
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkType.NVLINK, peak_bandwidth=1, efficiency=1.5, latency=0)
    with pytest.raises(ConfigurationError):
        LinkSpec(LinkType.NVLINK, peak_bandwidth=1, efficiency=0.9, latency=-1)


def test_transfer_time_includes_latency():
    assert transfer_time(0, NVLINK2) == pytest.approx(NVLINK2.latency)
    t_small = transfer_time(4 * KB, NVLINK2)
    assert t_small > NVLINK2.latency


def test_transfer_time_scales_with_lanes():
    one = transfer_time(1 * GB, NVLINK2, lanes=1)
    four = transfer_time(1 * GB, NVLINK2, lanes=4)
    assert four < one
    # Streaming part scales 4x; latency does not.
    assert (one - NVLINK2.latency) / (four - NVLINK2.latency) == pytest.approx(4.0)


def test_effective_bandwidth_ramps_with_size():
    # The Figure 4 shape: small transfers see a fraction of peak.
    small = effective_bandwidth(64 * KB, NVLINK2)
    large = effective_bandwidth(1 * GB, NVLINK2)
    assert small < 0.5 * NVLINK2.sustained_bandwidth
    assert large > 0.95 * NVLINK2.sustained_bandwidth


def test_effective_bandwidth_rejects_zero_size():
    with pytest.raises(ConfigurationError):
        effective_bandwidth(0, NVLINK2)


def test_transfer_time_rejects_invalid_args():
    with pytest.raises(ConfigurationError):
        transfer_time(-1, NVLINK2)
    with pytest.raises(ConfigurationError):
        transfer_time(1, NVLINK2, lanes=0)

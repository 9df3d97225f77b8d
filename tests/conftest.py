"""Shared fixtures: a small 4-GPU server and a tiny transformer.

Full-scale DGX-class jobs take seconds per simulation; unit tests use
a scaled-down server (4 GPUs, 2 GiB each, same topology flavor) and a
tiny model so a whole executor run finishes in milliseconds while
exercising every code path.
"""

from __future__ import annotations

import pytest

from repro.hardware.device import GPUSpec, HostSpec, NVMeSpec
from repro.hardware.links import NVLINK2
from repro.hardware.server import Server
from repro.hardware.topology import Topology, dgx1_topology, dgx2_topology
from repro.job import TrainingJob
from repro.models.config import TransformerConfig
from repro.models.layers import build_model
from repro.units import GiB, GBps, TFLOP


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate tests/goldens/*.json instead of asserting",
    )


def pytest_collection_modifyitems(config, items):
    """Everything not explicitly ``slow`` is tier-1 (see tests/README.md)."""
    for item in items:
        if "slow" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


TINY_GPU = GPUSpec(
    name="tiny-gpu",
    memory_bytes=2 * GiB,
    peak_fp32=10 * TFLOP,
    peak_fp16=80 * TFLOP,
    hbm_bandwidth=500 * GBps,
)


def small_topology() -> Topology:
    """4-GPU asymmetric direct topology (DGX-1 in miniature)."""
    adjacency = {
        frozenset((0, 1)): 2,
        frozenset((0, 2)): 1,
        frozenset((0, 3)): 1,
        frozenset((1, 2)): 1,
        frozenset((1, 3)): 1,
        frozenset((2, 3)): 2,
    }
    return Topology(n_gpus=4, kind="direct", nvlink=NVLINK2, adjacency=adjacency)


def dgx1_without_0_4() -> Topology:
    """DGX-1 minus the (0, 4) NVLink: not vertex-transitive, so the
    device-mapping search must try stage 0 on devices 0, 1 and 3."""
    topo = dgx1_topology()
    adjacency = {pair: count for pair, count in topo.adjacency.items()
                 if pair != frozenset((0, 4))}
    return Topology(n_gpus=8, kind="direct", nvlink=topo.nvlink,
                    adjacency=adjacency)


def small_server(gpu_memory: int = 2 * GiB) -> Server:
    gpu = GPUSpec(
        name="tiny-gpu",
        memory_bytes=gpu_memory,
        peak_fp32=10 * TFLOP,
        peak_fp16=80 * TFLOP,
        hbm_bandwidth=500 * GBps,
    )
    return Server(
        name="small-4gpu",
        gpus=[gpu] * 4,
        topology=small_topology(),
        host=HostSpec(memory_bytes=64 * GiB, vcpus=16),
        nvme=NVMeSpec(capacity_bytes=512 * GiB, read_bandwidth=4 * GBps, write_bandwidth=3 * GBps),
    )


def small_switched_server(gpu_memory: int = 2 * GiB) -> Server:
    gpu = GPUSpec(
        name="tiny-gpu",
        memory_bytes=gpu_memory,
        peak_fp32=10 * TFLOP,
        peak_fp16=80 * TFLOP,
        hbm_bandwidth=500 * GBps,
    )
    return Server(
        name="small-4gpu-switched",
        gpus=[gpu] * 4,
        topology=dgx2_topology(n_gpus=4),
        host=HostSpec(memory_bytes=64 * GiB, vcpus=16),
        nvme=NVMeSpec(capacity_bytes=512 * GiB, read_bandwidth=4 * GBps, write_bandwidth=3 * GBps),
    )


def tiny_model(n_layers: int = 6, hidden: int = 256):
    config = TransformerConfig(
        name=f"Tiny-{n_layers}x{hidden}",
        n_layers=n_layers,
        hidden=hidden,
        heads=4,
        vocab=1000,
        seq_len=64,
        max_positions=128,
    )
    return build_model(config)


def tiny_job(
    server=None,
    model=None,
    system: str = "dapple",
    microbatch_size: int = 2,
    microbatches_per_minibatch: int = 4,
    n_minibatches: int = 2,
    precision: str = "fp16",
) -> TrainingJob:
    return TrainingJob(
        model=model if model is not None else tiny_model(),
        server=server if server is not None else small_server(),
        system=system,
        microbatch_size=microbatch_size,
        microbatches_per_minibatch=microbatches_per_minibatch,
        n_minibatches=n_minibatches,
        precision=precision,
        mfu=0.5,
    )


@pytest.fixture
def server():
    return small_server()


@pytest.fixture
def switched_server():
    return small_switched_server()


@pytest.fixture
def model():
    return tiny_model()


@pytest.fixture
def job(server, model):
    return tiny_job(server=server, model=model)


@pytest.fixture
def dgx1():
    from repro.hardware.server import dgx1_server

    return dgx1_server()


@pytest.fixture
def dgx2():
    from repro.hardware.server import dgx2_server

    return dgx2_server()


@pytest.fixture
def dgx1_topo():
    return dgx1_topology()

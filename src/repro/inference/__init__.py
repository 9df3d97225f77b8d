"""LLM serving workloads on the training simulator's substrate.

The paper's D2D swap insight — NVLink aggregate bandwidth dwarfs PCIe
and spare memory exists on peer GPUs — is a property of the topology
and memory model, not of training.  This package applies it to the
serving-side memory problem: paged KV caches under continuous
batching, with cold KV blocks striped to spare-memory GPUs when a
device's pool fills (host swap over PCIe and vLLM-style recompute
preemption as baselines).
"""

from repro.inference.costing import ServingCost
from repro.inference.kvcache import KVBlockManager
from repro.inference.lowering import build_serving_program
from repro.inference.metrics import ServingMetrics, compute_metrics, percentile
from repro.inference.run import ServingOutcome, run_serving
from repro.inference.scheduler import (
    ServingTape,
    SwapDecision,
    schedule_serving,
)
from repro.inference.workload import InferenceConfig, Request, generate_requests

__all__ = [
    "InferenceConfig",
    "KVBlockManager",
    "Request",
    "ServingCost",
    "ServingMetrics",
    "ServingOutcome",
    "ServingTape",
    "SwapDecision",
    "build_serving_program",
    "compute_metrics",
    "generate_requests",
    "percentile",
    "run_serving",
    "schedule_serving",
]

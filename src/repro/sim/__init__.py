"""Discrete-event simulation of a multi-GPU training server.

The simulator substitutes for the paper's physical testbed.  It
models CUDA-like in-order streams (one compute stream plus dedicated
swap-in/swap-out copy streams per GPU, Section III-E), individual
NVLink lane channels, PCIe channels, NVMe queues, and per-device
memory accounting over time.

Simulation is layered (see ``docs/architecture.md``): a lowering pass
emits a typed instruction program, an interpreter replays it on the
engine/stream/memory substrate, and observers (tracing, memory
counters, fault auditing) subscribe to an event bus.
"""

from repro.sim.engine import Engine, Task, TaskState
from repro.sim.resources import Stream, StreamSet
from repro.sim.memory import DeviceMemory, MemoryModel, PinnedPool
from repro.sim.trace import CounterSample, TraceEvent, Trace
from repro.sim.events import (
    DeviceFailed,
    EventBus,
    FaultWindowClosed,
    FaultWindowOpened,
    InstructionCompleted,
    InstructionStarted,
    MemoryChanged,
    MemoryCounterSampler,
    TraceRecorder,
)
from repro.sim.ir import ExecOptions, InstructionProgram, ProgramBuilder, ProgramTape

# The lowering/interpreter/executor layers import planner-side modules
# (repro.core.plan), which themselves reach back into repro.sim via
# repro.graph — resolve them lazily (PEP 562) to keep the package
# importable from either end of that cycle.
_LAZY = {
    "Lowering": ("repro.sim.lowering", "Lowering"),
    "skeleton_build_count": ("repro.sim.lowering", "skeleton_build_count"),
    "Interpreter": ("repro.sim.interpreter", "Interpreter"),
    "SimulationResult": ("repro.sim.interpreter", "SimulationResult"),
    "PipelineExecutor": ("repro.sim.executor", "PipelineExecutor"),
    "simulate": ("repro.sim.executor", "simulate"),
    # Fast path: tape replay, dispatch, and incremental re-simulation
    # across planner candidates (docs/fastpath.md).
    "FastInterpreter": ("repro.sim.fastpath", "FastInterpreter"),
    "run_program": ("repro.sim.fastpath", "run_program"),
    "wants_fast_path": ("repro.sim.fastpath", "wants_fast_path"),
    "fast_path_runs": ("repro.sim.fastpath", "fast_path_runs"),
    "reference_runs": ("repro.sim.fastpath", "reference_runs"),
    "reset_run_counters": ("repro.sim.fastpath", "reset_run_counters"),
    "ProgramDiff": ("repro.sim.incremental", "ProgramDiff"),
    "diff_programs": ("repro.sim.incremental", "diff_programs"),
    "splice_programs": ("repro.sim.incremental", "splice_programs"),
    "IncrementalSimulator": ("repro.sim.incremental", "IncrementalSimulator"),
    # Collective lowering lives in repro.collectives but runs on this
    # substrate; re-exported here as part of the executor facade.
    "simulate_collective": ("repro.collectives.lowering", "simulate_collective"),
    "lower_collective": ("repro.collectives.lowering", "lower_collective"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


__all__ = [
    "Engine",
    "Task",
    "TaskState",
    "Stream",
    "StreamSet",
    "DeviceMemory",
    "MemoryModel",
    "PinnedPool",
    "CounterSample",
    "TraceEvent",
    "Trace",
    "EventBus",
    "InstructionStarted",
    "InstructionCompleted",
    "MemoryChanged",
    "DeviceFailed",
    "FaultWindowOpened",
    "FaultWindowClosed",
    "TraceRecorder",
    "MemoryCounterSampler",
    "ExecOptions",
    "InstructionProgram",
    "ProgramBuilder",
    "ProgramTape",
    "Lowering",
    "skeleton_build_count",
    "Interpreter",
    "SimulationResult",
    "PipelineExecutor",
    "simulate",
    "FastInterpreter",
    "run_program",
    "wants_fast_path",
    "fast_path_runs",
    "reference_runs",
    "reset_run_counters",
    "ProgramDiff",
    "diff_programs",
    "splice_programs",
    "IncrementalSimulator",
    "simulate_collective",
    "lower_collective",
]

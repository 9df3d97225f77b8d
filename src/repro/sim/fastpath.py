"""Unobserved fast path: event-tape replay of a program.

:class:`FastInterpreter` replays an :class:`~repro.sim.ir.InstructionProgram`
without building :class:`~repro.sim.engine.Task` objects, effect
closures, or an :class:`~repro.sim.events.EventBus`.  Lowering writes
the tape: every program carries a :class:`~repro.sim.ir.ProgramTape`
— flat columns of durations, stream bindings, dependency counts, and
opcode-encoded effects — and the event loop walks those columns
directly, with no compile pass and no typed instructions.  Memory
accounting still goes through the *real*
:class:`~repro.sim.memory.DeviceMemory` books and
:class:`~repro.sim.memory.PinnedPool`, so peaks, per-tag holdings,
timelines, and OOM attribution are identical to the reference
interpreter by construction, not by reimplementation.

Equivalence contract (enforced by ``tests/test_fastpath_equivalence.py``):
for any program with no external bus subscribers and no fault
schedule, :func:`run_program` produces a
:class:`~repro.sim.interpreter.SimulationResult` that is
*bit-identical* to ``Interpreter(program).run()`` — same event order,
same trace rows and counter samples, same memory books, same
makespan/minibatch floats.  The loop replicates the engine's exact
tie-breaking: streams kick in registration order, heap entries carry a
monotonically increasing sequence number (so equal completion times
pop in push order), and a finishing instruction wakes its own stream
first, then its dependents' streams in edge-declaration order.  Pool
arbitration ("first pending and ready member in submission order")
pops a per-stream min-heap of ready submission positions instead of
scanning the stream's members.

:func:`gc_paused` suspends CPython's cyclic collector while a whole
program is lowered and replayed: a large program's acyclic object
graph triggers dozens of full collections that find nothing to free.

Anything observational — external subscribers, fault schedules —
forces the reference :class:`~repro.sim.interpreter.Interpreter`;
:func:`wants_fast_path` is the single gate, and module counters
(:func:`fast_path_runs` / :func:`reference_runs`) record every
dispatch so tests can assert which path fired.

The interpreter can also snapshot its complete machine state every few
hundred completions for :mod:`repro.sim.incremental`, whose only
caller outside the tests is the benchmark's traced mode.  No
production path takes snapshots: the planner's emulator replays every
candidate program in full through :func:`run_program`, and nothing
cheaper stands in for that replay.
"""

from __future__ import annotations

import gc
import heapq
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import OutOfMemoryError, ScheduleError, SimulationError
from repro.sim.interpreter import Interpreter, SimulationResult
from repro.sim.ir import (
    ALLOC,
    DROP,
    HOST,
    PIN,
    UNPIN,
    InstructionProgram,
    ProgramTape,
)
from repro.sim.memory import MemoryModel, PinnedPool
from repro.sim.trace import CounterSample, Trace, TraceEvent

__all__ = [
    "FastInterpreter",
    "EngineSnapshot",
    "gc_paused",
    "run_program",
    "wants_fast_path",
    "fast_path_runs",
    "reference_runs",
    "reset_run_counters",
]

# Task states (mirrors engine.TaskState, as small ints).
_PENDING, _RUNNING, _DONE = 0, 1, 2


@dataclass
class EngineSnapshot:
    """Complete machine state between two event completions.

    Everything needed to resume the run from this instant: the event
    heap, per-instruction states and start times, per-stream FIFO
    cursors and running members, and the sizes/usage of every memory
    book and the trace.  Pool ready heaps are rebuilt from the states.
    Book timelines and trace rows are *not* copied — a resume slices
    the prefix out of the originating run's (append-only) lists.
    """

    now: float
    last_finish: float
    counter: int
    n_done: int
    heap: List[tuple]
    states: List[int]
    dep_remaining: List[int]
    starts: List[float]
    heads: List[int]
    running: List[int]
    # Per book (gpu0..gpuN, host): (in_use, peak, tags, len(timeline), len(events))
    books: List[Tuple[int, int, Dict[str, int], int, int]]
    pinned: Tuple[int, int]
    trace_events: int
    trace_counters: int


class FastInterpreter:
    """Single-use tape replay of one program (no bus, no Task objects)."""

    def __init__(self, program: InstructionProgram, snapshot_every: int = 0):
        self.program = program
        self.job = program.job
        self.plan = program.plan
        self.options = program.options
        self.tape: ProgramTape = program.tape
        options = program.options
        job = program.job
        capacities = [
            options.gpu_capacity_override or gpu.memory_bytes for gpu in job.server.gpus
        ]
        self.memory = MemoryModel(
            capacities, job.server.host.memory_bytes, strict=options.strict
        )
        # books[-1] is the host, so the tape's -1 device index lands there.
        self.books = list(self.memory.gpus) + [self.memory.host]
        self.pinned = PinnedPool(capacity=job.server.host.memory_bytes // 2)
        self.trace = Trace()
        self._record = options.record_trace

        n = self.tape.n
        self.states: List[int] = [_PENDING] * n
        self.dep_remaining: List[int] = list(self.tape.dep_count)
        self.starts: List[float] = [0.0] * n
        self.ends: List[float] = [0.0] * n
        n_streams = len(self.tape.stream_keys)
        self.heads: List[int] = [0] * n_streams          # fifo dispatch cursor
        self.running: List[int] = [-1] * n_streams
        self.ready = self.ready_heaps()
        self._heap: List[tuple] = []
        self._counter = 0
        self._now = 0.0
        self._last_finish = 0.0
        self._n_done = 0
        self._ran = False
        self.snapshot_every = snapshot_every
        self.snapshots: List[EngineSnapshot] = []
        self._since_snapshot = 0

    # -- public API --------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._ran:
            raise SimulationError(
                "FastInterpreter is single-use; build a new one per run"
            )
        self._ran = True
        try:
            self._apply_static()
            self._kick_all()
            makespan = self._loop()
        except OutOfMemoryError as oom:
            return self._failure(oom)
        return self.finalize(makespan)

    def mark_consumed(self) -> None:
        """Reserve this interpreter for an externally driven resume."""
        if self._ran:
            raise SimulationError(
                "FastInterpreter is single-use; build a new one per run"
            )
        self._ran = True

    def finalize(self, makespan: float) -> SimulationResult:
        return SimulationResult(
            job=self.job,
            plan=self.plan,
            ok=True,
            oom=None,
            makespan=makespan,
            memory=self.memory,
            trace=self.trace,
            minibatch_time=self._minibatch_time(makespan),
            resilience=None,
        )

    def _failure(self, oom: OutOfMemoryError) -> SimulationResult:
        return SimulationResult(
            job=self.job,
            plan=self.plan,
            ok=False,
            oom=oom,
            makespan=0.0,
            memory=self.memory,
            trace=self.trace,
            minibatch_time=0.0,
        )

    def ready_heaps(self) -> List[Optional[List[int]]]:
        """Per pool stream, the submission positions of its pending
        members whose producers have all finished (ascending, hence
        already a heap); None for FIFO streams."""
        states = self.states
        dep_remaining = self.dep_remaining
        heaps: List[Optional[List[int]]] = []
        for members, mode in zip(self.tape.members, self.tape.stream_modes):
            if mode == "fifo":
                heaps.append(None)
            else:
                heaps.append([
                    pos for pos, iid in enumerate(members)
                    if states[iid] == _PENDING and dep_remaining[iid] == 0
                ])
        return heaps

    # -- machine ----------------------------------------------------------

    def _apply_static(self) -> None:
        record = self._record
        counters = self.trace.counters
        for eff in self.program.static_effects:
            dev = -1 if eff.device == HOST else eff.device
            book = self.books[dev]
            book.alloc(eff.size, 0.0, tag=eff.tag)
            if record and dev >= 0:
                counters.append(
                    CounterSample(device=dev, time=0.0, bytes_in_use=book.in_use)
                )

    def _kick_all(self) -> None:
        for s in range(len(self.tape.stream_keys)):
            self._try_start(s)

    def _try_start(self, s: int) -> None:
        if self.running[s] >= 0:
            return
        tape = self.tape
        members = tape.members[s]
        states = self.states
        dep_remaining = self.dep_remaining
        if tape.stream_modes[s] == "fifo":
            head = self.heads[s]
            if head >= len(members):
                return
            iid = members[head]
            if states[iid] != _PENDING or dep_remaining[iid] != 0:
                return
        else:
            # Pool arbitration: first pending+ready task in submission
            # order (the reference scans a deque of unfinished tasks).
            # The heap holds exactly those tasks' positions.
            ready = self.ready[s]
            if not ready:
                return
            iid = members[heapq.heappop(ready)]
        now = self._now
        states[iid] = _RUNNING
        self.running[s] = iid
        self.starts[iid] = now
        effects = tape.start_effects[iid]
        if effects is not None:
            self._apply(effects, iid, now)
        self._counter += 1
        heapq.heappush(self._heap, (now + tape.durations[iid], self._counter, iid))

    def _finish(self, iid: int) -> None:
        now = self._now
        tape = self.tape
        states = self.states
        states[iid] = _DONE
        self.ends[iid] = now
        self._n_done += 1
        if now > self._last_finish:
            self._last_finish = now
        s = tape.stream_of[iid]
        self.running[s] = -1
        if tape.stream_modes[s] == "fifo":
            self.heads[s] += 1
        effects = tape.done_effects[iid]
        if effects is not None:
            self._apply(effects, iid, now)
        dependents = tape.dependents[iid]
        dep_remaining = self.dep_remaining
        stream_of = tape.stream_of
        ready = self.ready
        for consumer in dependents:
            left = dep_remaining[consumer] - 1
            dep_remaining[consumer] = left
            # Still pending: nothing starts before its last producer ends.
            if left == 0:
                heap = ready[stream_of[consumer]]
                if heap is not None:
                    heapq.heappush(heap, tape.pos_in_stream[consumer])
        # Own stream first, then dependents' streams in edge order —
        # the engine's exact wake-up discipline.
        self._try_start(s)
        seen = {s}
        for consumer in dependents:
            cs = stream_of[consumer]
            if cs not in seen:
                seen.add(cs)
                self._try_start(cs)

    def _apply(self, effects: List[tuple], iid: int, now: float) -> None:
        books = self.books
        record = self._record
        for op in effects:
            code = op[0]
            if code == ALLOC:
                book = books[op[1]]
                book.alloc(op[2], now, tag=op[3])
                if record and op[1] >= 0:
                    self.trace.counters.append(
                        CounterSample(device=op[1], time=now, bytes_in_use=book.in_use)
                    )
            elif code == DROP:
                book = books[op[1]]
                book.free(op[2], now, tag=op[3])
                if record and op[1] >= 0:
                    self.trace.counters.append(
                        CounterSample(device=op[1], time=now, bytes_in_use=book.in_use)
                    )
            elif code == PIN:
                self.pinned.take(op[1])
            elif code == UNPIN:
                self.pinned.give(op[1])
            elif record:  # RECORD
                self.trace.record(
                    TraceEvent(
                        name=self.tape.names[iid],
                        kind=op[1],
                        device=op[2],
                        microbatch=op[3],
                        start=self.starts[iid],
                        end=now,
                        layer=op[4],
                    )
                )

    def _loop(self) -> float:
        heap = self._heap
        heappop = heapq.heappop
        snapshot_every = self.snapshot_every
        while heap:
            now, _seq, iid = heappop(heap)
            self._now = now
            self._finish(iid)
            if snapshot_every:
                self._since_snapshot += 1
                if self._since_snapshot >= snapshot_every and heap:
                    self._since_snapshot = 0
                    self.snapshots.append(self._snapshot())
        if self._n_done != self.tape.n:
            stuck = self._stuck_names()
            names = ", ".join(stuck[:8])
            raise ScheduleError(
                f"deadlock: {self.tape.n - self._n_done} tasks cannot run "
                f"(e.g. {names})"
            )
        return self._last_finish

    def _stuck_names(self) -> List[str]:
        names = []
        for members in self.tape.members:
            for iid in members:
                if self.states[iid] == _PENDING:
                    names.append(self.tape.names[iid])
        return names

    def _snapshot(self) -> EngineSnapshot:
        return EngineSnapshot(
            now=self._now,
            last_finish=self._last_finish,
            counter=self._counter,
            n_done=self._n_done,
            heap=list(self._heap),
            states=list(self.states),
            dep_remaining=list(self.dep_remaining),
            starts=list(self.starts),
            heads=list(self.heads),
            running=list(self.running),
            books=[
                (b.in_use, b.peak, dict(b._tags), len(b.timeline), len(b.events))
                for b in self.books
            ],
            pinned=(self.pinned.in_use, self.pinned.peak),
            trace_events=len(self.trace.events),
            trace_counters=len(self.trace.counters),
        )

    # -- metrics -----------------------------------------------------------

    def _minibatch_time(self, makespan: float) -> float:
        device = self.plan.device_of(0)
        opt_ends = sorted(
            event.end
            for event in self.trace.events
            if event.kind == "opt" and event.device == device
        )
        if len(opt_ends) >= 2:
            return (opt_ends[-1] - opt_ends[0]) / (len(opt_ends) - 1)
        if self.job.n_minibatches > 0:
            return makespan / self.job.n_minibatches
        return makespan


# -- dispatch ----------------------------------------------------------------

_RUNS = {"fast": 0, "reference": 0}


def wants_fast_path(program: InstructionProgram, subscribers=()) -> bool:
    """True when the run is unobserved: no external bus subscribers
    and no fault schedule.  Built-in trace/counter recording does not
    disqualify a run — the tape replay produces those natively."""
    if subscribers:
        return False
    faults = program.options.faults
    return faults is None or faults.is_empty


_GC_LOCK = threading.Lock()


def _fresh_gc_lock() -> None:
    # A fork taken while another thread held the lock must not
    # inherit it held.
    global _GC_LOCK
    _GC_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_gc_lock)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the enclosed block.

    Lowering and replay allocate one acyclic object graph per program;
    generational collection walks it dozens of times and frees
    nothing.  Re-entrant: only a block that found the collector
    enabled re-enables it, so a caller that disabled it keeps it off.
    The lock makes check-and-disable atomic against re-enabling, so
    overlapping blocks on several threads always leave it on.
    """
    with _GC_LOCK:
        was_enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            with _GC_LOCK:
                gc.enable()


def run_program(program: InstructionProgram, subscribers=()) -> SimulationResult:
    """Run a program on the cheapest path that preserves its semantics."""
    if wants_fast_path(program, subscribers):
        _RUNS["fast"] += 1
        return FastInterpreter(program).run()
    _RUNS["reference"] += 1
    return Interpreter(program, subscribers=subscribers).run()


def fast_path_runs() -> int:
    """Process-wide count of fast-path dispatches (tests/benchmarks)."""
    return _RUNS["fast"]


def reference_runs() -> int:
    """Process-wide count of reference-interpreter dispatches."""
    return _RUNS["reference"]


def reset_run_counters() -> None:
    _RUNS["fast"] = 0
    _RUNS["reference"] = 0

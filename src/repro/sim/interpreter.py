"""Replay an instruction program on the discrete-event substrate.

The interpreter is the execution half of the split executor: it knows
nothing about pipelines, memory-saving plans, or fault policies — it
materializes the :class:`~repro.sim.ir.InstructionProgram` onto the
existing :class:`~repro.sim.engine.Engine` / stream / memory-book
substrate and runs the event loop.  Everything observational (trace
recording, memory counters, fault auditing) subscribes to the
:class:`~repro.sim.events.EventBus` instead of living in this loop.

Determinism: streams are registered in the program's recorded
first-use order, tasks are submitted in instruction order, and
dependency edges are applied in edge-tape order — the three axes that
fix event ordering on simultaneity ties (see :mod:`repro.sim.ir`).
Effect closures are compiled once at materialization, so a run with no
subscribers pays no per-event dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import OutOfMemoryError, SimulationError
from repro.faults.report import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.inject import FaultInjector
from repro.sim.engine import Engine, Task
from repro.sim.events import (
    EventBus,
    InstructionCompleted,
    InstructionStarted,
    MemoryChanged,
    MemoryCounterSampler,
    TraceRecorder,
)
from repro.sim.ir import (
    HOST,
    Alloc,
    Drop,
    Instruction,
    InstructionProgram,
    Pin,
    Record,
    Unpin,
)
from repro.sim.memory import MemoryModel, PinnedPool
from repro.sim.resources import StreamSet
from repro.sim.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of one simulated training run."""

    job: "object"
    plan: "object"
    ok: bool
    oom: Optional[OutOfMemoryError]
    makespan: float
    memory: MemoryModel
    trace: Trace
    minibatch_time: float
    # Populated when the run was executed under a fault schedule.
    resilience: Optional[ResilienceReport] = None

    @property
    def samples_per_second(self) -> float:
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.job.samples_per_minibatch / self.minibatch_time

    @property
    def tflops(self) -> float:
        """Aggregate achieved model TFLOPS (the paper's Figures 7/8 metric)."""
        if not self.ok or self.minibatch_time <= 0:
            return 0.0
        return self.job.minibatch_flops() / self.minibatch_time / 1e12

    @property
    def peak_memory_per_gpu(self) -> List[int]:
        return self.memory.peaks()


class Interpreter:
    """One single-use replay of one instruction program.

    ``subscribers`` are objects with an ``attach(bus)`` method; they
    are attached after the built-in trace/counter recorders, so their
    handlers observe events in a deterministic order.
    """

    def __init__(self, program: InstructionProgram, subscribers=()):
        self.program = program
        self.job = program.job
        self.plan = program.plan
        self.options = program.options
        options = program.options
        job = program.job
        self.engine = Engine()
        self.streams = StreamSet(self.engine)
        capacities = [
            options.gpu_capacity_override or gpu.memory_bytes for gpu in job.server.gpus
        ]
        self.memory = MemoryModel(
            capacities, job.server.host.memory_bytes, strict=options.strict
        )
        self.pinned = PinnedPool(capacity=job.server.host.memory_bytes // 2)
        self.trace = Trace()
        self.bus = EventBus()
        if options.record_trace:
            TraceRecorder(self.trace).attach(self.bus)
            MemoryCounterSampler(self.trace).attach(self.bus)
        for subscriber in subscribers:
            subscriber.attach(self.bus)
        self.injector: Optional["FaultInjector"] = None
        if options.faults is not None and not options.faults.is_empty:
            # Imported here: faults.inject subscribes to sim.events,
            # so a module-level import would be circular.
            from repro.faults.inject import FaultInjector

            self.injector = FaultInjector(
                options.faults,
                self.engine,
                self.streams,
                job,
                self.memory,
                self.trace,
                self.bus,
            )
            self.injector.arm()
        self._tasks: List[Task] = []
        self._ran = False

    # -- public API --------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._ran:
            raise SimulationError(
                "Interpreter is single-use; build a new one per run"
            )
        self._ran = True
        try:
            self._apply_static()
            self._materialize()
            makespan = self.engine.run()
        except OutOfMemoryError as oom:
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
        resilience = (
            self.injector.build_report(makespan) if self.injector is not None else None
        )
        return SimulationResult(
            job=self.job,
            plan=self.plan,
            ok=True,
            oom=None,
            makespan=makespan,
            memory=self.memory,
            trace=self.trace,
            minibatch_time=self._minibatch_time(makespan),
            resilience=resilience,
        )

    # -- materialization ---------------------------------------------------

    def _book(self, device):
        return self.memory.host if device == HOST else self.memory.gpu(device)

    def _apply_static(self) -> None:
        want_mem = self.bus.wants(MemoryChanged)
        for eff in self.program.static_effects:
            book = self._book(eff.device)
            book.alloc(eff.size, 0.0, tag=eff.tag)
            if want_mem:
                self.bus.publish(
                    MemoryChanged(
                        device=eff.device,
                        delta=eff.size,
                        in_use=book.in_use,
                        tag=eff.tag,
                        time=0.0,
                    )
                )

    def _materialize(self) -> None:
        # Registration order breaks simultaneity ties in the engine's
        # round-robin kick; replay the recorded first-use order before
        # any submission.
        for key, mode in self.program.stream_order:
            self.streams.get(key, mode=mode)
        want_started = self.bus.wants(InstructionStarted)
        tasks = self._tasks
        for instr in self.program.instructions:
            task = Task(
                name=instr.name,
                duration=instr.duration,
                on_start=self._bind(instr, instr.start_effects, started=want_started),
                on_done=self._bind(instr, instr.done_effects),
            )
            self.streams.get(instr.stream, mode=instr.stream_mode).submit(task)
            tasks.append(task)
        # Edges are applied strictly in tape order: ``dependents`` list
        # order drives dependent wake-up order on time ties.
        for consumer, producer in self.program.edges:
            tasks[consumer].add_dep(tasks[producer])

    def _bind(
        self, instr: Instruction, effects, started: bool = False
    ) -> Optional[Callable[[Task, float], None]]:
        """Compile an effect list into one engine hook (or None)."""
        bus = self.bus
        fns: List[Callable[[Task, float], None]] = []
        if started:
            fns.append(
                lambda task, now, i=instr: bus.publish(
                    InstructionStarted(instruction=i, time=now)
                )
            )
        want_mem = bus.wants(MemoryChanged)
        want_completed = bus.wants(InstructionCompleted)
        for eff in effects:
            if isinstance(eff, Alloc):
                fns.append(self._alloc_fn(eff, want_mem))
            elif isinstance(eff, Drop):
                fns.append(self._drop_fn(eff, want_mem))
            elif isinstance(eff, Pin):
                fns.append(lambda task, now, s=eff.size: self.pinned.take(s))
            elif isinstance(eff, Unpin):
                fns.append(lambda task, now, s=eff.size: self.pinned.give(s))
            elif isinstance(eff, Record):
                if want_completed:
                    fns.append(
                        lambda task, now, i=instr, r=eff: bus.publish(
                            InstructionCompleted(
                                instruction=i, record=r, start=task.start_time, end=now
                            )
                        )
                    )
            else:  # pragma: no cover - exhaustive over Effect
                raise TypeError(f"unknown effect {eff!r}")
        if not fns:
            return None
        if len(fns) == 1:
            return fns[0]

        def hook(task: Task, now: float) -> None:
            for fn in fns:
                fn(task, now)

        return hook

    def _alloc_fn(self, eff: Alloc, want_mem: bool):
        book = self._book(eff.device)
        if not want_mem:
            return lambda task, now, b=book, e=eff: b.alloc(e.size, now, tag=e.tag)
        bus = self.bus

        def fn(task, now, b=book, e=eff):
            b.alloc(e.size, now, tag=e.tag)
            bus.publish(
                MemoryChanged(
                    device=e.device, delta=e.size, in_use=b.in_use, tag=e.tag, time=now
                )
            )

        return fn

    def _drop_fn(self, eff: Drop, want_mem: bool):
        book = self._book(eff.device)
        if not want_mem:
            return lambda task, now, b=book, e=eff: b.free(e.size, now, tag=e.tag)
        bus = self.bus

        def fn(task, now, b=book, e=eff):
            b.free(e.size, now, tag=e.tag)
            bus.publish(
                MemoryChanged(
                    device=e.device, delta=-e.size, in_use=b.in_use, tag=e.tag, time=now
                )
            )

        return fn

    # -- metrics -----------------------------------------------------------

    def _minibatch_time(self, makespan: float) -> float:
        """Steady-state minibatch period from stage 0's optimizer steps."""
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

"""Typed device-level instruction IR for the simulator, and its tape.

Lowering (:mod:`repro.sim.lowering`) turns a ``(TrainingJob,
MemorySavingPlan, ExecOptions)`` triple into an
:class:`InstructionProgram` — a frozen, inspectable description of one
training iteration set: typed instructions (:class:`Compute`,
:class:`SwapOut`, :class:`SwapIn`, :class:`Recompute`,
:class:`P2PSend`/:class:`P2PRecv`, :class:`OptimStep`,
:class:`Barrier` joins) in submission order, a global dependency-edge
tape, and the memory *effects* each instruction applies when it starts
or finishes.  The interpreter (:mod:`repro.sim.interpreter`) replays
the program on the discrete-event substrate without knowing anything
about pipelines, plans, or memory-saving policies.

Every lowering writes the program through one :class:`ProgramBuilder`,
straight into a :class:`ProgramTape`: flat per-instruction columns
with effects as opcode tuples, which the fast path
(:mod:`repro.sim.fastpath`) replays as is.  The typed instructions are
rebuilt from the tape only when something reads
``program.instructions`` (the reference interpreter, incremental
re-simulation, inspection); a program built from typed instructions
gets its tape from the same builder, so there is one effect encoder.

Determinism contract: the simulator's golden traces are byte-pinned,
and trace event order depends on (a) stream registration order, (b)
per-stream submission order, and (c) the order dependency edges were
declared in (it drives dependent wake-up order on ties).  The IR
therefore records all three explicitly: ``stream_order`` lists stream
keys in first-use order, ``instructions`` is the submission sequence,
and ``edges`` is the edge-declaration tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.faults.spec import FaultSchedule

# Host memory "device" marker in effects (GPU devices are ints).
HOST = "host"

DeviceRef = Union[int, str]


@dataclass(frozen=True)
class ExecOptions:
    """Knobs of one simulation run.

    ``prefetch_lead`` — a swap-in may begin once the compute task
    this many positions before its consumer finishes, keeping the
    copy off the critical path.

    ``swap_backpressure`` — the memory manager's allocator
    backpressure: a layer's forward pass for microbatch ``k`` cannot
    start until the same layer's swap-out for microbatch
    ``k - window`` completed, bounding un-evicted generations in
    flight (a real allocator would stall the same way instead of
    OOMing).
    """

    strict: bool = True
    prefetch_lead: int = 3
    record_trace: bool = True
    gpu_capacity_override: Optional[int] = None
    swap_backpressure: int = 6
    # Optimizer state streams through in chunks so only a couple of
    # chunks are GPU-resident at once (a whole multi-GB blob would
    # not fit next to the working set at billion scale).
    opt_swap_chunk: int = 2 * 1024**3
    # Timed hardware faults injected into the run (slowdowns, link
    # degradation, device failures, NVMe stalls); None or an empty
    # schedule reproduces the fault-free execution exactly.
    faults: Optional[FaultSchedule] = None


# -- effects ----------------------------------------------------------------
#
# Effects are the *semantic* side of an instruction: what it does to
# device memory books and the pinned staging pool when it starts or
# finishes.  The interpreter applies them in list order — the order is
# part of the behaviour contract (strict-mode OOM attribution depends
# on it).


@dataclass(frozen=True)
class Alloc:
    """Reserve ``size`` bytes on ``device`` under ``tag``."""

    device: DeviceRef
    size: int
    tag: str


@dataclass(frozen=True)
class Drop:
    """Release ``size`` bytes of ``tag`` on ``device``."""

    device: DeviceRef
    size: int
    tag: str


@dataclass(frozen=True)
class Pin:
    """Take ``size`` bytes from the pinned staging pool."""

    size: int


@dataclass(frozen=True)
class Unpin:
    """Return ``size`` bytes to the pinned staging pool."""

    size: int


@dataclass(frozen=True)
class Record:
    """Publish a trace record when the instruction completes."""

    kind: str
    device: int
    microbatch: int
    layer: int = -1


Effect = Union[Alloc, Drop, Pin, Unpin, Record]


# -- instructions -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Instruction:
    """One schedulable unit on one stream.

    ``iid`` is the instruction's index in the program (submission
    order); ``stream`` is the channel key it executes on, with
    ``stream_mode`` selecting FIFO (in-order compute queues) or pool
    (link arbitration) dispatch.
    """

    iid: int
    name: str
    stream: Hashable
    stream_mode: str
    duration: float
    device: DeviceRef
    start_effects: Tuple[Effect, ...] = ()
    done_effects: Tuple[Effect, ...] = ()


@dataclass(frozen=True, kw_only=True)
class Compute(Instruction):
    """One layer's forward or backward kernel (``op`` is fwd/bwd)."""

    stage: int
    microbatch: int
    layer: int
    op: str


@dataclass(frozen=True, kw_only=True)
class Recompute(Instruction):
    """Re-forward of a checkpointed layer before its backward."""

    stage: int
    microbatch: int
    layer: int


@dataclass(frozen=True, kw_only=True)
class OptimStep(Instruction):
    """Optimizer update — the per-minibatch join or one chunk update."""

    stage: int
    minibatch: int


@dataclass(frozen=True, kw_only=True)
class SwapOut(Instruction):
    """GPU→host eviction leg over PCIe."""

    tag: str
    size: int
    tier: str = "host"


@dataclass(frozen=True, kw_only=True)
class SwapIn(Instruction):
    """Host→GPU restore leg over PCIe."""

    tag: str
    size: int
    tier: str = "host"


@dataclass(frozen=True, kw_only=True)
class NvmeWrite(Instruction):
    """Host→NVMe spill continuing a swap-out (ZeRO-Infinity style)."""

    tag: str
    size: int


@dataclass(frozen=True, kw_only=True)
class NvmeRead(Instruction):
    """NVMe→host fetch preceding a swap-in."""

    tag: str
    size: int


@dataclass(frozen=True, kw_only=True)
class P2PSend(Instruction):
    """Point-to-point transfer leaving ``src`` (NVLink lane or staged PCIe)."""

    src: int
    dst: int


@dataclass(frozen=True, kw_only=True)
class P2PRecv(Instruction):
    """Return transfer of striped state back to its exporter."""

    src: int
    dst: int


@dataclass(frozen=True, kw_only=True)
class Barrier(Instruction):
    """Zero-cost join/begin marker gating a group of transfers."""


# -- tape encoding ------------------------------------------------------------
#
# On the tape an effect is an opcode tuple, the form the fast path
# applies directly:
#
#   (ALLOC, book, size, tag)   (DROP, book, size, tag)
#   (PIN, size)   (UNPIN, size)   (RECORD, kind, device, microbatch, layer)
#
# ``book`` is the GPU index, or HOST_BOOK for host memory.

ALLOC, DROP, PIN, UNPIN, RECORD = 0, 1, 2, 3, 4
HOST_BOOK = -1

_EFFECT_OF = {ALLOC: Alloc, DROP: Drop, PIN: Pin, UNPIN: Unpin, RECORD: Record}


def encode_effects(effects) -> Optional[List[tuple]]:
    """Typed effects as tape opcode tuples (None when there are none)."""
    if not effects:
        return None
    ops: List[tuple] = []
    for eff in effects:
        if isinstance(eff, (Alloc, Drop)):
            ops.append((ALLOC if isinstance(eff, Alloc) else DROP,
                        HOST_BOOK if eff.device == HOST else eff.device,
                        eff.size, eff.tag))
        elif isinstance(eff, Pin):
            ops.append((PIN, eff.size))
        elif isinstance(eff, Unpin):
            ops.append((UNPIN, eff.size))
        elif isinstance(eff, Record):
            ops.append((RECORD, eff.kind, eff.device, eff.microbatch, eff.layer))
        else:
            raise TypeError(f"unknown effect {eff!r}")
    return ops


def decode_effects(ops: Optional[List[tuple]]) -> Tuple[Effect, ...]:
    """The typed effects of an opcode list (inverse of encode_effects)."""
    if not ops:
        return ()
    effects = []
    for code, *args in ops:
        if code == ALLOC or code == DROP:
            args[0] = HOST if args[0] == HOST_BOOK else args[0]
        effects.append(_EFFECT_OF[code](*args))
    return tuple(effects)


_BASE_FIELDS = frozenset(f.name for f in fields(Instruction))


@lru_cache(maxsize=None)
def _own_fields(kind: type) -> Tuple[str, ...]:
    """The fields an instruction type adds to :class:`Instruction`."""
    return tuple(f.name for f in fields(kind) if f.name not in _BASE_FIELDS)


# -- tape and builder ---------------------------------------------------------


class ProgramTape:
    """A program as flat per-instruction columns, indexed by iid.

    The fast path replays these columns directly: ``names``,
    ``durations``, stream bindings (``stream_of`` indexes
    ``stream_keys``/``stream_modes``; ``members`` lists each stream's
    iids and ``pos_in_stream`` each instruction's place there),
    dependency fan-in (``dep_count``) and fan-out (``dependents``, in
    edge-declaration order), and ``start_effects``/``done_effects`` as
    opcode lists (None when empty).  ``kinds``, ``devices`` and
    ``fields`` (each type's own fields) are what :meth:`materialize`
    needs to rebuild the typed instructions.  :class:`ProgramBuilder`
    writes a tape; once its program is finished the tape is immutable
    and reusable across any number of runs.
    """

    __slots__ = (
        "n", "names", "durations", "stream_keys", "stream_modes", "stream_of",
        "members", "pos_in_stream", "dep_count", "dependents",
        "start_effects", "done_effects", "kinds", "devices", "fields",
    )

    def __init__(self) -> None:
        self.n = 0
        for column in self.__slots__[1:]:
            setattr(self, column, [])

    def materialize(self) -> Tuple[Instruction, ...]:
        """The typed instructions this tape encodes, in iid order."""
        keys, modes = self.stream_keys, self.stream_modes
        return tuple(
            kind(iid=iid, name=name, stream=keys[s], stream_mode=modes[s],
                 duration=duration, device=device,
                 start_effects=decode_effects(start),
                 done_effects=decode_effects(done), **own)
            for iid, (kind, name, s, duration, device, start, done, own)
            in enumerate(zip(self.kinds, self.names, self.stream_of,
                             self.durations, self.devices, self.start_effects,
                             self.done_effects, self.fields))
        )


class ProgramBuilder:
    """Writes a program's tape one instruction and one edge at a time.

    The only producer of :class:`ProgramTape`: the training, serving
    and collective lowerings emit through it, and so does a program
    built from typed instructions.  Streams register in first-use
    order.  :meth:`emit` takes ownership of the opcode lists it is
    given; :meth:`add_start`/:meth:`add_done` append an effect to an
    earlier instruction and :meth:`set_duration` rewrites its duration,
    until :meth:`finish` seals the tape into a program.
    """

    def __init__(self) -> None:
        self.tape = ProgramTape()
        self.edges: List[Tuple[int, int]] = []
        self._stream_index: Dict[Hashable, int] = {}

    def stream(self, key: Hashable, mode: str) -> int:
        """Index of stream ``key``, registered with ``mode`` on first use."""
        s = self._stream_index.get(key)
        if s is None:
            tape = self.tape
            s = self._stream_index[key] = len(tape.stream_keys)
            tape.stream_keys.append(key)
            tape.stream_modes.append(mode)
            tape.members.append([])
        return s

    def emit(self, kind: type, name: str, stream: Hashable, mode: str,
             duration: float, device: DeviceRef, deps: Tuple[int, ...] = (),
             start: Optional[List[tuple]] = None,
             done: Optional[List[tuple]] = None, **own) -> int:
        """Append a ``kind`` instruction waiting on ``deps``; returns its iid."""
        tape = self.tape
        s = self._stream_index.get(stream)
        if s is None:
            s = self.stream(stream, mode)
        iid = len(tape.names)
        tape.names.append(name)
        tape.durations.append(duration)
        tape.stream_of.append(s)
        members = tape.members[s]
        tape.pos_in_stream.append(len(members))
        members.append(iid)
        tape.start_effects.append(start or None)
        tape.done_effects.append(done or None)
        tape.kinds.append(kind)
        tape.devices.append(device)
        tape.fields.append(own)
        tape.dep_count.append(len(deps))
        tape.dependents.append([])
        dependents = tape.dependents
        for dep in deps:
            self.edges.append((iid, dep))
            dependents[dep].append(iid)
        return iid

    def add(self, instr: Instruction) -> int:
        """Append a typed instruction; its position is its iid."""
        kind = type(instr)
        return self.emit(
            kind, instr.name, instr.stream, instr.stream_mode,
            float(instr.duration), instr.device,
            start=encode_effects(instr.start_effects),
            done=encode_effects(instr.done_effects),
            **{name: getattr(instr, name) for name in _own_fields(kind)},
        )

    def edge(self, consumer: int, producer: int) -> None:
        """Declare that ``consumer`` waits for ``producer``."""
        self.edges.append((consumer, producer))
        self.tape.dep_count[consumer] += 1
        self.tape.dependents[producer].append(consumer)

    def add_start(self, iid: int, op: tuple) -> None:
        """Append one start effect to instruction ``iid``."""
        _append(self.tape.start_effects, iid, op)

    def add_done(self, iid: int, op: tuple) -> None:
        """Append one done effect to instruction ``iid``."""
        _append(self.tape.done_effects, iid, op)

    def set_duration(self, iid: int, duration: float) -> None:
        self.tape.durations[iid] = duration

    def seal(self) -> ProgramTape:
        """The finished tape (no writes after this)."""
        self.tape.n = len(self.tape.names)
        return self.tape

    def finish(self, job, plan, options: ExecOptions,
               static_effects: Sequence[Alloc] = ()) -> "InstructionProgram":
        """The finished program, carrying this builder's tape."""
        tape = self.seal()
        return InstructionProgram(
            job, plan, options,
            edges=tuple(self.edges),
            static_effects=tuple(static_effects),
            stream_order=tuple(zip(tape.stream_keys, tape.stream_modes)),
            tape=tape,
        )


def _append(column: List[Optional[List[tuple]]], iid: int, op: tuple) -> None:
    if column[iid] is None:
        column[iid] = [op]
    else:
        column[iid].append(op)


# -- program ----------------------------------------------------------------


@dataclass(frozen=True, init=False)
class InstructionProgram:
    """A lowered simulation: instructions + edges + static state.

    * ``instructions`` — submission order per stream (and globally);
    * ``edges`` — ``(consumer_iid, producer_iid)`` pairs in the order
      the dependencies were declared during lowering;
    * ``static_effects`` — allocations applied at t=0 before any
      instruction runs (resident model state per the plan);
    * ``stream_order`` — ``(key, mode)`` pairs in first-use order, so
      the interpreter registers streams exactly as the legacy
      executor did (registration order breaks simultaneity ties);
    * ``tape`` — the same program as the columns the fast path replays.

    A lowering passes its finished tape (:meth:`ProgramBuilder.finish`),
    and ``instructions`` is rebuilt from it on first read: only the
    reference interpreter, incremental re-simulation and inspection
    read it.  A program constructed from ``instructions`` (tests,
    ``dataclasses.replace``) gets its tape from a
    :class:`ProgramBuilder`, one instruction at a time.
    """

    job: "object"
    plan: "object"
    options: ExecOptions
    instructions: Tuple[Instruction, ...]
    edges: Tuple[Tuple[int, int], ...]
    static_effects: Tuple[Alloc, ...]
    stream_order: Tuple[Tuple[Hashable, str], ...]
    tape: ProgramTape = field(init=False, repr=False, compare=False)

    def __init__(self, job, plan, options: ExecOptions,
                 instructions: Optional[Sequence[Instruction]] = None,
                 edges: Tuple[Tuple[int, int], ...] = (),
                 static_effects: Tuple[Alloc, ...] = (),
                 stream_order: Tuple[Tuple[Hashable, str], ...] = (),
                 tape: Optional[ProgramTape] = None):
        put = object.__setattr__
        put(self, "job", job)
        put(self, "plan", plan)
        put(self, "options", options)
        put(self, "edges", edges)
        put(self, "static_effects", static_effects)
        put(self, "stream_order", stream_order)
        if tape is None:
            if instructions is None:
                raise TypeError("InstructionProgram needs instructions or a tape")
            builder = ProgramBuilder()
            for key, mode in stream_order:
                builder.stream(key, mode)
            for instr in instructions:
                builder.add(instr)
            for consumer, producer in edges:
                builder.edge(consumer, producer)
            tape = builder.seal()
            put(self, "instructions", tuple(instructions))
        put(self, "tape", tape)

    def __getattr__(self, name: str):
        # Reached only for attributes __init__ did not set: the
        # instructions of a program that was lowered straight to tape.
        if name != "instructions":
            raise AttributeError(name)
        instructions = self.tape.materialize()
        object.__setattr__(self, "instructions", instructions)
        return instructions

    def __len__(self) -> int:
        return self.tape.n

    def by_stream(self) -> Dict[Hashable, List[Instruction]]:
        """Instructions grouped per stream key, in submission order."""
        grouped: Dict[Hashable, List[Instruction]] = {}
        for instr in self.instructions:
            grouped.setdefault(instr.stream, []).append(instr)
        return grouped

    def for_device(self, device: DeviceRef) -> List[Instruction]:
        """The device's instruction stream (submission order)."""
        return [instr for instr in self.instructions if instr.device == device]

    def counts_by_type(self) -> Dict[str, int]:
        """Instruction counts per type name (inspection/tests)."""
        counts: Dict[str, int] = {}
        for kind in self.tape.kinds:
            counts[kind.__name__] = counts.get(kind.__name__, 0) + 1
        return counts

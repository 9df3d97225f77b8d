"""Incremental re-simulation across planner candidates.

The planner's refinement loop lowers one :class:`~repro.sim.lowering.Lowering`
into a *sequence* of programs that differ only where the candidate
plan changed a tensor class's action.  :func:`diff_programs` compares
two such programs by instruction name and computes a conservative
**divergence horizon** ``safe_time``: a simulated instant strictly
before which the two runs are provably event-for-event identical.
:class:`IncrementalSimulator` then replays only the suffix — it
restores the newest :class:`~repro.sim.fastpath.EngineSnapshot` taken
before ``safe_time`` and lets the event loop run to completion on the
new program's tapes.  A diff with no divergence at all short-circuits
to the previous result (memoization).

Soundness argument (tested property-by-property in
``tests/test_sim_incremental.py``):

* An instruction is **tainted** if its name, payload, stream,
  effects, producer-name list, or same-stream predecessor changed.
  Untainted instructions behave identically *until some tainted
  instruction starts*: FIFO heads and pool arbitration scan over the
  same member sequence (the predecessor signature pins per-stream
  order), and a pending-not-ready tainted member blocks/yields
  exactly like its old self.
* An old-side tainted instruction perturbs the old event stream from
  the instant it started — recorded exactly by the previous run.  A
  new-side tainted instruction cannot start before all of its
  producers finish, nor (on a FIFO stream) before its predecessor
  finishes.  An untainted producer's finish time is known exactly
  while the runs are still identical; a tainted producer's finish is
  itself bounded below by its own start bound, so bounds propagate
  through tainted chains.  The minimum bound over every tainted
  instruction (in either program) bounds the first possible
  divergence.
* The one way an *untainted* instruction can reorder events is at its
  own finish, when the engine wakes its dependents' streams in edge
  order: if that stream sequence changed, the instruction's old
  finish time caps ``safe_time`` too.

Everything at a strictly earlier simulated time — heap contents,
memory books, trace rows, stream cursors — is therefore byte-reusable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OutOfMemoryError
from repro.sim.fastpath import (
    _DONE,
    _PENDING,
    _RUNNING,
    EngineSnapshot,
    FastInterpreter,
    ProgramTape,
    run_program,
    wants_fast_path,
)
from repro.sim.interpreter import SimulationResult
from repro.sim.ir import InstructionProgram

__all__ = [
    "ProgramDiff",
    "diff_programs",
    "splice_programs",
    "IncrementalSimulator",
]


@dataclass
class ProgramDiff:
    """Outcome of comparing two programs of one lowering."""

    identical: bool
    resumable: bool
    # Strict upper bound on reuse: every event strictly before this
    # simulated time is shared by both runs.  inf when identical.
    safe_time: float
    # (old_iid, new_iid) pairs of untainted instructions.
    matched: List[Tuple[int, int]]
    old_to_new: Dict[int, int]
    n_tainted: int


def _body(instr) -> dict:
    payload = dict(vars(instr))
    payload.pop("iid", None)
    return payload


def diff_programs(
    old: InstructionProgram,
    new: InstructionProgram,
    old_ends: Optional[List[float]] = None,
    old_starts: Optional[List[float]] = None,
) -> ProgramDiff:
    """Match instructions by name and bound the first divergence.

    ``old_ends``/``old_starts`` map old iid -> finish/start time of a
    *completed* run of ``old``; without them the divergence horizon
    degrades to 0 (matching is still computed, which is all
    :func:`splice_programs` needs).  An old-side tainted instruction
    diverges exactly at its recorded start; a new-side one is bounded
    through its dependency (and FIFO-predecessor) chain.
    """
    bail = ProgramDiff(
        identical=False, resumable=False, safe_time=0.0, matched=[],
        old_to_new={}, n_tainted=max(len(old), len(new)),
    )
    old_instrs, new_instrs = old.instructions, new.instructions
    old_index = {i.name: i.iid for i in old_instrs}
    new_index = {i.name: i.iid for i in new_instrs}
    if len(old_index) != len(old_instrs) or len(new_index) != len(new_instrs):
        return bail  # duplicate names: name-keyed matching unsound
    resumable = (
        old.static_effects == new.static_effects
        and old.stream_order == new.stream_order
        and old.options == new.options
    )

    def edge_views(program):
        instrs = program.instructions
        dep_names = [[] for _ in instrs]
        dep_iids = [[] for _ in instrs]
        dependent_streams = [[] for _ in instrs]
        for consumer, producer in program.edges:
            dep_names[consumer].append(instrs[producer].name)
            dep_iids[consumer].append(producer)
            dependent_streams[producer].append(instrs[consumer].stream)
        pred = [None] * len(instrs)
        pred_iid = [None] * len(instrs)
        last_on_stream: Dict[object, Tuple[str, int]] = {}
        for i, instr in enumerate(instrs):
            prev = last_on_stream.get(instr.stream)
            if prev is not None:
                pred[i], pred_iid[i] = prev
            last_on_stream[instr.stream] = (instr.name, i)
        return dep_names, dep_iids, dependent_streams, pred, pred_iid

    old_deps, old_dep_iids, old_dep_streams, old_pred, _ = edge_views(old)
    new_deps, new_dep_iids, new_dep_streams, new_pred, new_pred_iid = \
        edge_views(new)

    matched: List[Tuple[int, int]] = []
    tainted_old: List[int] = []
    tainted_new: List[int] = []
    for name, oi in old_index.items():
        ni = new_index.get(name)
        if ni is None:
            tainted_old.append(oi)
            continue
        if (
            _body(old_instrs[oi]) != _body(new_instrs[ni])
            or old_deps[oi] != new_deps[ni]
            or old_pred[oi] != new_pred[ni]
        ):
            tainted_old.append(oi)
            tainted_new.append(ni)
        else:
            matched.append((oi, ni))
    for name, ni in new_index.items():
        if name not in old_index:
            tainted_new.append(ni)

    old_to_new = dict(matched)
    matched_old = set(old_to_new)
    n_tainted = len(tainted_old) + len(tainted_new)

    if old_ends is None and n_tainted:
        return ProgramDiff(
            identical=False, resumable=False, safe_time=0.0,
            matched=matched, old_to_new=old_to_new, n_tainted=n_tainted,
        )

    def new_side_bounds() -> List[float]:
        """Lower bound on each new-side tainted instruction's start.

        A start is gated by every producer's finish and — on a FIFO
        stream — by the predecessor's finish.  Matched producers
        finish at their recorded old time while the runs are still
        identical; tainted producers contribute their own bound
        (processed in iid order: lowering declares producers before
        consumers, and a forward reference degrades to 0.0).
        """
        tainted_set = set(tainted_new)
        lb: Dict[int, float] = {}
        for i in sorted(tainted_set):
            sources = list(new_dep_iids[i])
            if (
                new_instrs[i].stream_mode == "fifo"
                and new_pred_iid[i] is not None
            ):
                sources.append(new_pred_iid[i])
            best = 0.0
            for p in sources:
                if p in tainted_set:
                    bound = lb.get(p, 0.0)
                else:
                    bound = old_ends[old_index[new_instrs[p].name]]
                if bound > best:
                    best = bound
            lb[i] = best
        return list(lb.values())

    bounds: List[float] = []
    if old_ends is not None:
        if old_starts is not None:
            # An old-side tainted instruction perturbs the old event
            # stream from the instant it started — known exactly.
            bounds.extend(old_starts[oi] for oi in tainted_old)
        else:
            tainted_set = set(tainted_old)
            lb: Dict[int, float] = {}
            for oi in sorted(tainted_set):
                best = 0.0
                for p in old_dep_iids[oi]:
                    bound = lb.get(p, 0.0) if p in tainted_set else old_ends[p]
                    if bound > best:
                        best = bound
                lb[oi] = best
            bounds.extend(lb.values())
        bounds.extend(new_side_bounds())
        # Untainted producers whose dependent-stream wake-up sequence
        # changed reorder kicks at their own finish instant.
        for oi, ni in matched:
            if old_dep_streams[oi] != new_dep_streams[ni]:
                bounds.append(old_ends[oi])

    if not n_tainted and not bounds:
        return ProgramDiff(
            identical=True, resumable=resumable, safe_time=float("inf"),
            matched=matched, old_to_new=old_to_new, n_tainted=0,
        )
    return ProgramDiff(
        identical=False, resumable=resumable,
        safe_time=min(bounds) if bounds else 0.0,
        matched=matched, old_to_new=old_to_new, n_tainted=n_tainted,
    )


def splice_programs(
    old: InstructionProgram,
    new: InstructionProgram,
    diff: Optional[ProgramDiff] = None,
) -> InstructionProgram:
    """Rebuild ``new`` reusing ``old``'s instruction objects where the
    diff proved them untainted.  Prefix-reuse soundness means the
    spliced program equals the fully lowered one, field for field —
    the property test in ``tests/test_sim_incremental.py``."""
    if diff is None:
        diff = diff_programs(old, new)
    instructions = list(new.instructions)
    for oi, ni in diff.matched:
        instructions[ni] = dataclasses.replace(old.instructions[oi], iid=ni)
    return dataclasses.replace(new, instructions=tuple(instructions))


@dataclass
class _RunArtifacts:
    program: InstructionProgram
    tape: ProgramTape
    starts: List[float]
    ends: List[float]
    snapshots: List[EngineSnapshot]
    books: list
    trace: object
    result: SimulationResult


class IncrementalSimulator:
    """Re-simulates a stream of programs from one lowering, reusing
    the shared prefix of consecutive candidates.

    Fault schedules and external subscribers fall back to
    :func:`~repro.sim.fastpath.run_program` (and clear the reuse
    state, since an observed run's artifacts are not kept).
    """

    def __init__(self, min_reuse_events: int = 32):
        self._last: Optional[_RunArtifacts] = None
        self._min_reuse_events = min_reuse_events
        self.n_full = 0
        self.n_resumed = 0
        self.n_memoized = 0

    # -- public API --------------------------------------------------------

    def run(self, program: InstructionProgram) -> SimulationResult:
        if not wants_fast_path(program):
            self._last = None
            return run_program(program)
        art = self._last
        if art is not None and art.program.job is program.job:
            diff = diff_programs(art.program, program, art.ends, art.starts)
            if diff.identical and diff.resumable:
                self.n_memoized += 1
                return dataclasses.replace(
                    art.result, job=program.job, plan=program.plan
                )
            if diff.resumable:
                snapshot = self._pick_snapshot(art, diff.safe_time)
                if snapshot is not None:
                    result = self._resume(art, program, diff, snapshot)
                    if result is not None:
                        self.n_resumed += 1
                        return result
        return self._full(program)

    # -- execution ---------------------------------------------------------

    def _snapshot_stride(self, n: int) -> int:
        return max(self._min_reuse_events, n // 8)

    def _full(self, program: InstructionProgram) -> SimulationResult:
        self.n_full += 1
        interp = FastInterpreter(
            program, snapshot_every=self._snapshot_stride(len(program))
        )
        result = interp.run()
        self._store(program, interp, result)
        return result

    def _store(self, program, interp, result) -> None:
        if result.ok:
            self._last = _RunArtifacts(
                program=program,
                tape=interp.tape,
                starts=interp.starts,
                ends=interp.ends,
                snapshots=interp.snapshots,
                books=interp.books,
                trace=interp.trace,
                result=result,
            )
        else:
            self._last = None

    def _pick_snapshot(
        self, art: _RunArtifacts, safe_time: float
    ) -> Optional[EngineSnapshot]:
        best = None
        for snapshot in art.snapshots:
            if snapshot.now < safe_time and snapshot.n_done >= self._min_reuse_events:
                if best is None or snapshot.n_done > best.n_done:
                    best = snapshot
        return best

    def _resume(
        self,
        art: _RunArtifacts,
        program: InstructionProgram,
        diff: ProgramDiff,
        snapshot: EngineSnapshot,
    ) -> Optional[SimulationResult]:
        old_to_new = diff.old_to_new
        interp = FastInterpreter(
            program, snapshot_every=self._snapshot_stride(len(program))
        )
        interp.mark_consumed()
        tape = interp.tape

        # Every instruction already started by the snapshot instant
        # must survive unchanged in the new program.
        states = interp.states
        starts = interp.starts
        ends = interp.ends
        n_done = 0
        for old_iid, state in enumerate(snapshot.states):
            if state == _PENDING:
                continue
            new_iid = old_to_new.get(old_iid)
            if new_iid is None:
                return None
            states[new_iid] = state
            starts[new_iid] = snapshot.starts[old_iid]
            if state == _DONE:
                ends[new_iid] = art.ends[old_iid]
                n_done += 1

        dep_remaining = [0] * tape.n
        for consumer, producer in program.edges:
            if states[producer] != _DONE:
                dep_remaining[consumer] += 1
        interp.dep_remaining = dep_remaining
        interp.ready = interp.ready_heaps()

        heap = []
        for end, seq, old_iid in snapshot.heap:
            new_iid = old_to_new.get(old_iid)
            if new_iid is None:
                return None
            heap.append((end, seq, new_iid))
        interp._heap = heap  # remapping preserves the heap invariant

        for s, members in enumerate(tape.members):
            head = len(members)
            running = -1
            for pos, iid in enumerate(members):
                if states[iid] == _RUNNING:
                    running = iid
                if head == len(members) and states[iid] != _DONE:
                    head = pos
            interp.heads[s] = head
            interp.running[s] = running

        for book, old_book, saved in zip(interp.books, art.books, snapshot.books):
            in_use, peak, tags, n_timeline, n_events = saved
            book.in_use = in_use
            book.peak = peak
            book._tags = dict(tags)
            book.timeline = list(old_book.timeline[:n_timeline])
            book.events = list(old_book.events[:n_events])
        interp.pinned.in_use, interp.pinned.peak = snapshot.pinned

        trace = interp.trace
        trace.events = list(art.trace.events[: snapshot.trace_events])
        trace.counters = list(art.trace.counters[: snapshot.trace_counters])
        trace.makespan = max((event.end for event in trace.events), default=0.0)

        interp._now = snapshot.now
        interp._counter = snapshot.counter
        interp._last_finish = snapshot.last_finish
        interp._n_done = n_done

        try:
            makespan = interp._loop()
        except OutOfMemoryError as oom:
            result = interp._failure(oom)
            self._last = None
            return result
        result = interp.finalize(makespan)
        self._store(program, interp, result)
        return result

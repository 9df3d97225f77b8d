"""Fast-path dispatch, tape compilation, and failure parity.

Unit coverage for :mod:`repro.sim.fastpath`: when the vectorized
tape interpreter is allowed to fire, how dispatch is counted, and
that the failure modes (single-use reuse, OOM attribution, deadlock
reporting) match the reference interpreter exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import signal
import sys
import threading
import time

import pytest

from repro.core.mpress import MPress
from repro.core.plan import empty_plan
from repro.errors import ScheduleError, SimulationError
from repro.faults.spec import random_schedule
from repro.hardware import dgx1_server
from repro.job import pipedream_job
from repro.models import bert_variant
from repro.sim import fastpath
from repro.sim.events import TraceRecorder
from repro.sim.fastpath import (
    _PENDING,
    _RUNNING,
    FastInterpreter,
    ProgramTape,
    fast_path_runs,
    gc_paused,
    reference_runs,
    reset_run_counters,
    run_program,
    wants_fast_path,
)
from repro.sim.incremental import IncrementalSimulator, diff_programs
from repro.sim.interpreter import Interpreter
from repro.sim.ir import (
    Barrier,
    Compute,
    ExecOptions,
    InstructionProgram,
    Record,
)
from repro.sim.lowering import Lowering
from repro.sim.trace import Trace
from tests.conftest import small_server, tiny_job, tiny_model
from tests.test_fastpath_equivalence import result_fingerprint

MiB = 2**20


@pytest.fixture(scope="module")
def program():
    job = tiny_job()
    plan = MPress(job).build_plan()
    return Lowering(job, ExecOptions(strict=False, prefetch_lead=2)).lower(plan)


class TestDispatch:
    def test_unobserved_run_takes_fast_path(self, program):
        assert wants_fast_path(program)
        reset_run_counters()
        run_program(program)
        assert fast_path_runs() == 1
        assert reference_runs() == 0

    def test_external_subscriber_forces_reference(self, program):
        """Any bus subscriber makes the run observed: the reference
        interpreter must serve it (and produce the same bytes)."""
        recorder = TraceRecorder(Trace())
        assert not wants_fast_path(program, subscribers=(recorder,))
        reset_run_counters()
        observed = run_program(program, subscribers=(recorder,))
        assert reference_runs() == 1
        assert fast_path_runs() == 0
        # The external recorder saw the same event stream the
        # built-in one recorded.
        assert len(recorder.trace.events) == len(observed.trace.events)
        assert result_fingerprint(observed) == \
            result_fingerprint(run_program(program))

    def test_fault_schedule_forces_reference(self):
        job = tiny_job()
        faults = random_schedule(seed=5, n_devices=job.server.n_gpus,
                                 horizon=1.0)
        program = Lowering(
            job, ExecOptions(strict=False, prefetch_lead=2, faults=faults)
        ).lower(MPress(job).build_plan())
        assert not wants_fast_path(program)
        reset_run_counters()
        run_program(program)
        assert reference_runs() == 1

    def test_empty_fault_schedule_stays_fast(self):
        from repro.faults.spec import FaultSchedule

        job = tiny_job()
        faults = FaultSchedule()
        assert faults.is_empty
        program = Lowering(
            job, ExecOptions(strict=False, prefetch_lead=2, faults=faults)
        ).lower(MPress(job).build_plan())
        assert wants_fast_path(program)


class TestSingleUse:
    def test_reference_interpreter_rejects_reuse(self, program):
        interp = Interpreter(program)
        interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()

    def test_fast_interpreter_rejects_reuse(self, program):
        interp = FastInterpreter(program)
        interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()

    def test_mark_consumed_reserves_interpreter(self, program):
        interp = FastInterpreter(program)
        interp.mark_consumed()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.mark_consumed()


class TestTape:
    def test_tape_shapes(self, program):
        tape = ProgramTape(program)
        n = len(program.instructions)
        assert tape.n == n
        assert sum(len(m) for m in tape.members) == n
        assert sum(tape.dep_count) == len(program.edges)
        assert len(tape.stream_keys) == len(program.stream_order)

    def test_durations_are_plain_floats(self, program):
        """np.float64 must not leak into results — records go through
        json.dumps, which rejects numpy scalars."""
        tape = ProgramTape(program)
        assert all(type(d) is float for d in tape.durations)
        result = FastInterpreter(program).run()
        assert type(result.makespan) is float
        assert type(result.minibatch_time) is float

    def test_tape_is_reusable_across_runs(self, program):
        tape = ProgramTape(program)
        first = FastInterpreter(program, tape=tape).run()
        second = FastInterpreter(program, tape=tape).run()
        assert result_fingerprint(first) == result_fingerprint(second)


class TestFailureParity:
    def test_strict_oom_matches_reference(self):
        """An over-capacity strict run fails identically on both
        paths: same verdict, same OOM attribution string."""
        job = tiny_job(server=small_server(gpu_memory=24 * MiB),
                       model=tiny_model(n_layers=12, hidden=512),
                       microbatches_per_minibatch=6)
        program = Lowering(job, ExecOptions(strict=True)).lower(None)
        fast = FastInterpreter(program).run()
        reference = Interpreter(program).run()
        assert not fast.ok and not reference.ok
        assert str(fast.oom) == str(reference.oom)
        assert fast.makespan == reference.makespan == 0.0

    def test_deadlock_message_matches_reference(self, program):
        """A cyclic dependency deadlocks both interpreters with the
        same diagnostic."""
        job = tiny_job()
        instrs = tuple(
            Barrier(iid=i, name=f"b{i}", stream=("x", 0), stream_mode="fifo",
                    duration=0.0, device=0)
            for i in range(2)
        )
        cyclic = InstructionProgram(
            job=job,
            plan=MPress(job).build_plan(),
            options=ExecOptions(strict=False),
            instructions=instrs,
            edges=((0, 1), (1, 0)),
            static_effects=(),
            stream_order=((("x", 0), "fifo"),),
        )
        with pytest.raises(ScheduleError) as fast_err:
            FastInterpreter(cyclic).run()
        with pytest.raises(ScheduleError) as ref_err:
            Interpreter(cyclic).run()
        assert str(fast_err.value) == str(ref_err.value)
        assert "deadlock: 2 tasks" in str(fast_err.value)


class TestSnapshots:
    def test_snapshot_cadence(self, program):
        interp = FastInterpreter(program, snapshot_every=64)
        interp.run()
        assert interp.snapshots
        done_counts = [snapshot.n_done for snapshot in interp.snapshots]
        assert done_counts == sorted(done_counts)
        assert all(snapshot.now <= interp._now for snapshot in interp.snapshots)

    def test_no_snapshots_by_default(self, program):
        interp = FastInterpreter(program)
        interp.run()
        assert interp.snapshots == []


# -- pool arbitration ---------------------------------------------------------


def _pool_program() -> InstructionProgram:
    """Three producers on their own FIFO streams feed a four-member
    pool stream, so its members become ready out of submission order:

    * ``m3`` (no producers) runs first, 0 to 0.5;
    * ``p1`` finishes at 1.0 and ``m1`` runs 1.0 to 2.5;
    * ``m2`` is ready at 1.2 and ``m0`` at 2.0: both wait for ``m1``,
      and the pool must pick ``m0``, the earlier submission;
    * ``tail`` (after ``p0`` on its FIFO stream) waits on ``m0``.
    """
    job = tiny_job()
    specs = [  # name, stream, mode, duration, producers
        ("p0", ("src", 0), "fifo", 2.0, ()),
        ("p1", ("src", 1), "fifo", 1.0, ()),
        ("p2", ("src", 2), "fifo", 1.2, ()),
        ("m0", ("pool", 0), "pool", 1.0, ("p0",)),
        ("m1", ("pool", 0), "pool", 1.5, ("p1",)),
        ("m2", ("pool", 0), "pool", 0.75, ("p2",)),
        ("m3", ("pool", 0), "pool", 0.5, ()),
        ("tail", ("src", 0), "fifo", 0.25, ("m0",)),
    ]
    iid_of = {name: iid for iid, (name, *_rest) in enumerate(specs)}
    instrs = tuple(
        Compute(iid=iid, name=name, stream=stream, stream_mode=mode,
                duration=duration, device=0, stage=0, microbatch=iid,
                layer=0, op="fwd",
                done_effects=(Record(kind="fwd", device=0, microbatch=iid),))
        for iid, (name, stream, mode, duration, _deps) in enumerate(specs)
    )
    edges = tuple(
        (iid, iid_of[producer])
        for iid, (*_head, deps) in enumerate(specs) for producer in deps
    )
    stream_order = []
    for _name, stream, mode, _duration, _deps in specs:
        if (stream, mode) not in stream_order:
            stream_order.append((stream, mode))
    return InstructionProgram(
        job=job, plan=empty_plan(job.n_stages),
        options=ExecOptions(strict=False), instructions=instrs, edges=edges,
        static_effects=(), stream_order=tuple(stream_order),
    )


class TestPoolArbitration:
    def test_out_of_order_readiness_matches_reference(self):
        program = _pool_program()
        interp = FastInterpreter(program)
        fast = interp.run()
        assert result_fingerprint(fast) == \
            result_fingerprint(Interpreter(program).run())
        start = {name: interp.starts[iid]
                 for iid, name in enumerate(interp.tape.names)}
        assert start["m3"] == 0.0
        assert start["m1"] == 1.0
        assert start["m0"] == 2.5      # ready after m2, submitted before it
        assert start["m2"] == 3.5
        assert interp.ready[interp.tape.stream_of[3]] == []

    def test_tape_records_position_in_stream(self):
        tape = ProgramTape(_pool_program())
        for members in tape.members:
            assert [tape.pos_in_stream[iid] for iid in members] == \
                list(range(len(members)))

    def test_resume_rebuilds_ready_heaps(self):
        """Resume from a snapshot taken while ``m2`` sits ready behind
        the busy pool: only a rebuilt ready heap can start it."""
        base = _pool_program()
        tail = base.instructions[-1]
        changed = dataclasses.replace(base, instructions=base.instructions[:-1]
                                      + (dataclasses.replace(tail, duration=0.5),))
        sim = IncrementalSimulator(min_reuse_events=1)
        sim.run(base)
        art = sim._last
        diff = diff_programs(base, changed, art.ends, art.starts)
        snapshot = sim._pick_snapshot(art, diff.safe_time)
        m2 = art.tape.names.index("m2")
        assert snapshot.states[m2] == _PENDING
        assert snapshot.dep_remaining[m2] == 0
        assert snapshot.states[art.tape.names.index("m0")] == _RUNNING
        resumed = sim.run(changed)
        assert sim.n_resumed == 1
        assert result_fingerprint(resumed) == \
            result_fingerprint(Interpreter(changed).run())

    def test_lowered_pool_streams_resume_bit_identically(self, program):
        """A lowered program with pool streams, perturbed late enough
        to resume, still matches a fresh reference run."""
        assert "pool" in ProgramTape(program).stream_modes
        sim = IncrementalSimulator()
        sim.run(program)
        starts = sim._last.starts
        iid = max(range(len(starts)), key=lambda i: starts[i])
        instrs = list(program.instructions)
        instrs[iid] = dataclasses.replace(
            instrs[iid], duration=instrs[iid].duration * 1.5 + 1e-3)
        changed = dataclasses.replace(program, instructions=tuple(instrs))
        resumed = sim.run(changed)
        assert sim.n_resumed == 1
        assert result_fingerprint(resumed) == \
            result_fingerprint(Interpreter(changed).run())


# -- the collector pause --------------------------------------------------------


@pytest.fixture
def gc_restored():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPaused:
    def test_pauses_and_restores_enabled(self, gc_restored):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_keeps_a_callers_disable(self, gc_restored):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nests(self, gc_restored):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self, gc_restored):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_overlapping_threads_leave_collector_enabled(self, gc_restored):
        """Blocks entered and left on many threads at once must never
        strand the collector disabled (a lost check-then-disable)."""
        gc.enable()

        def churn():
            for _ in range(2000):
                with gc_paused():
                    with gc_paused():
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_while_lock_held_can_pause(self):
        """A fork taken while another thread held the pause lock must
        not leave the child deadlocked on its first pause."""
        with fastpath._GC_LOCK:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with gc_paused():
                        code = 0
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 30
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child deadlocked on the pause lock")
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_headline_plan_leaves_no_cyclic_garbage(self, gc_restored):
        """The pause is free only because lowering and replay create no
        reference cycles: nothing is left for the collector to find."""
        gc.enable()
        gc.collect()
        job = pipedream_job(bert_variant(0.64), dgx1_server())
        with gc_paused():
            result = MPress(job).run()
        assert result.ok
        assert gc.collect() == 0

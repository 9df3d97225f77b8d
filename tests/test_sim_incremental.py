"""Program diffing and incremental re-simulation.

Property coverage for :mod:`repro.sim.incremental`: splicing a
changed suffix onto a reused prefix is indistinguishable from a full
lowering, diffs classify taint conservatively, and snapshot resume
is bit-identical to a fresh run.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpress import MPress
from repro.sim.incremental import (
    IncrementalSimulator,
    diff_programs,
    splice_programs,
)
from repro.sim.interpreter import Interpreter
from repro.sim.ir import ExecOptions
from repro.sim.lowering import Lowering
from tests.conftest import small_server, tiny_job, tiny_model
from tests.test_fastpath_equivalence import result_fingerprint

MiB = 2**20


@pytest.fixture(scope="module")
def pool():
    job = tiny_job(server=small_server(gpu_memory=64 * MiB),
                   model=tiny_model(n_layers=12, hidden=512),
                   microbatches_per_minibatch=6)
    plan = MPress(job).build_plan()
    lowering = Lowering(job, ExecOptions(strict=False, prefetch_lead=2))
    return job, plan, lowering


def _drop(plan, keys):
    return dataclasses.replace(
        plan, entries={k: v for k, v in plan.entries.items() if k not in keys})


class TestDiff:
    def test_identical_programs(self, pool):
        _job, plan, lowering = pool
        diff = diff_programs(lowering.lower(plan), lowering.lower(plan))
        assert diff.identical
        assert diff.resumable
        assert diff.safe_time == float("inf")
        assert diff.n_tainted == 0
        assert len(diff.matched) == len(lowering.lower(plan).instructions)

    def test_entry_drop_taints_locally(self, pool):
        _job, plan, lowering = pool
        old = lowering.lower(plan)
        key = next(iter(plan.entries))
        new = lowering.lower(_drop(plan, {key}))
        diff = diff_programs(old, new)
        assert not diff.identical
        assert 0 < diff.n_tainted < len(old.instructions)
        # Matching is a bijection between untainted instructions.
        assert len(diff.matched) == len(set(diff.old_to_new.values()))

    def test_safe_time_bounded_by_run(self, pool):
        _job, plan, lowering = pool
        old = lowering.lower(plan)
        sim = IncrementalSimulator()
        result = sim.run(old)
        art = sim._last
        key = next(iter(plan.entries))
        new = lowering.lower(_drop(plan, {key}))
        diff = diff_programs(old, new, art.ends, art.starts)
        assert 0.0 <= diff.safe_time <= result.makespan

    def test_options_change_blocks_resume(self, pool):
        job, plan, _lowering = pool
        a = Lowering(job, ExecOptions(strict=False, prefetch_lead=2)).lower(plan)
        b = Lowering(job, ExecOptions(strict=False, prefetch_lead=3)).lower(plan)
        assert not diff_programs(a, b).resumable


class TestSplice:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_splice_equals_full_lowering(self, pool, data):
        """Changed suffix grafted onto the reused prefix == relowering
        from scratch, field for field."""
        _job, plan, lowering = pool
        keys = sorted(plan.entries, key=repr)
        dropped = data.draw(st.sets(st.sampled_from(keys)), label="dropped")
        old = lowering.lower(plan)
        new = lowering.lower(_drop(plan, dropped))
        assert splice_programs(old, new) == new

    def test_splice_reuses_old_objects(self, pool):
        _job, plan, lowering = pool
        old = lowering.lower(plan)
        key = next(iter(plan.entries))
        new = lowering.lower(_drop(plan, {key}))
        diff = diff_programs(old, new)
        spliced = splice_programs(old, new, diff)
        for old_iid, new_iid in diff.matched:
            assert spliced.instructions[new_iid] == dataclasses.replace(
                old.instructions[old_iid], iid=new_iid)


class TestResume:
    def test_memoizes_identical_program(self, pool):
        _job, plan, lowering = pool
        sim = IncrementalSimulator()
        first = sim.run(lowering.lower(plan))
        second = sim.run(lowering.lower(plan))
        assert sim.n_memoized == 1
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_late_divergence_resumes_bit_identically(self, pool):
        """Stretch the duration of progressively later instructions:
        each delta must resume from a snapshot and still match a
        fresh reference run on every byte."""
        _job, plan, lowering = pool
        base = lowering.lower(plan)
        sim = IncrementalSimulator()
        sim.run(base)
        starts = sim._last.starts
        order = sorted(range(len(starts)), key=lambda i: starts[i])
        for quantile in (0.6, 0.9):
            iid = order[int(quantile * (len(order) - 1))]
            instrs = list(base.instructions)
            instrs[iid] = dataclasses.replace(
                instrs[iid], duration=instrs[iid].duration * 1.5)
            program = dataclasses.replace(base, instructions=tuple(instrs))
            before = sim.n_resumed
            resumed = sim.run(program)
            assert sim.n_resumed == before + 1
            assert result_fingerprint(resumed) == \
                result_fingerprint(Interpreter(program).run())
            sim.run(base)  # restore baseline artifacts

    def test_early_divergence_falls_back_to_full(self, pool):
        """Plan deltas touch microbatch 0's forwards, which run before
        the first snapshot — the simulator must *not* resume, and the
        full re-run still matches the reference."""
        _job, plan, lowering = pool
        sim = IncrementalSimulator()
        sim.run(lowering.lower(plan))
        key = next(iter(plan.entries))
        program = lowering.lower(_drop(plan, {key}))
        result = sim.run(program)
        assert sim.n_resumed == 0
        assert result_fingerprint(result) == \
            result_fingerprint(Interpreter(program).run())

"""Differential harness: fast path == reference, bit for bit.

Every golden configuration is replayed three ways — the reference
:class:`~repro.sim.interpreter.Interpreter`, the dispatched
:func:`~repro.sim.fastpath.run_program` fast path, and the
:class:`~repro.sim.incremental.IncrementalSimulator` — and the three
results must agree on every observable byte: step times, memory
peaks and per-tag books, trace digests, counter-sample counts, and
cache digests.  A Hypothesis property extends the same claim to
random plans with shrinking.

This is the enforcement arm of the equivalence contract documented
in docs/fastpath.md: the fast path is an *optimization*, never a
semantic fork.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpress import MPress
from repro.core.planner import Planner, PlannerConfig, baseline_config
from repro.runtime.task import SimTask, execute_task, trace_digest
from repro.sim.fastpath import (
    fast_path_runs,
    reference_runs,
    run_program,
    wants_fast_path,
)
from repro.sim.incremental import IncrementalSimulator
from repro.sim.interpreter import Interpreter
from repro.sim.ir import ExecOptions
from repro.sim.lowering import Lowering
from tests.conftest import small_server, tiny_job, tiny_model
from tests.test_goldens import (
    GOLDENS,
    HYBRID_GOLDENS,
    golden_path,
    golden_task,
    hybrid_golden_task,
)

MiB = 2**20


def result_fingerprint(result) -> tuple:
    """Every observable of a simulation, as comparable plain data."""
    return (
        result.ok,
        result.makespan,
        result.minibatch_time,
        tuple(result.memory.peaks()),
        tuple(tuple(sorted(book._tags.items())) for book in result.memory.gpus),
        tuple(sorted(result.memory.host._tags.items())),
        tuple(result.memory.host.timeline),
        trace_digest(result.trace),
        len(result.trace.events),
        len(result.trace.counters),
    )


def _golden_program(name: str):
    """Lower one golden config exactly as ``execute_task`` would."""
    task = golden_task(name)
    system = GOLDENS[name][4]
    if system == "none":
        from repro.core.plan import empty_plan

        plan = empty_plan(task.job.n_stages)
        prefetch_lead = 3
    else:
        mpress = MPress(task.job, baseline_config(system), faults=task.faults)
        plan = mpress.build_plan()
        prefetch_lead = Planner.PREFETCH_LEAD
    options = ExecOptions(strict=True, prefetch_lead=prefetch_lead,
                          faults=task.faults)
    return Lowering(task.job, options).lower(plan)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_three_way_equivalence(name):
    """reference == dispatched fast path == incremental, per golden."""
    program = _golden_program(name)
    reference = result_fingerprint(Interpreter(program).run())
    dispatched = result_fingerprint(run_program(program))
    incremental = result_fingerprint(IncrementalSimulator().run(program))
    assert dispatched == reference
    assert incremental == reference


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_record_matches_pinned_bytes(name):
    """The dispatched execution path reproduces the pinned golden
    record byte-for-byte — the records were minted by the reference
    interpreter, so this ties the fast path to history."""
    record = execute_task(golden_task(name))
    with open(golden_path(name)) as handle:
        golden = json.load(handle)
    assert json.dumps(record, sort_keys=True) == \
        json.dumps(golden["record"], sort_keys=True)


@pytest.mark.parametrize("name", sorted(HYBRID_GOLDENS))
def test_hybrid_golden_record_matches_pinned_bytes(name):
    """Hybrid replicas dispatch through the fast path too; their
    pinned records (incl. per-replica trace digests) must not move."""
    before = fast_path_runs()
    record = execute_task(hybrid_golden_task(name))
    assert fast_path_runs() > before
    with open(golden_path(name)) as handle:
        golden = json.load(handle)
    assert json.dumps(record, sort_keys=True) == \
        json.dumps(golden["record"], sort_keys=True)


def test_faulted_goldens_take_reference_path():
    """A fault schedule is observational: the dispatcher must refuse
    the fast path and the two paths trivially agree."""
    faulted = [name for name, row in GOLDENS.items() if row[6] is not None]
    assert faulted, "golden matrix lost its faulted configs"
    for name in faulted:
        program = _golden_program(name)
        assert not wants_fast_path(program)
        before = reference_runs()
        run_program(program)
        assert reference_runs() == before + 1


def test_cache_keys_are_execution_strategy_free():
    """Fast-path results share cache entries with full simulations:
    nothing about *how* a task is simulated reaches its cache key."""
    job = tiny_job()
    tasks = (
        SimTask(label="a", job=job, system="recomputation"),
        # An explicit planner config is hashed field by field.
        SimTask(label="b", job=job, system="mpress",
                config=PlannerConfig(mapping_mode="auto", striping=True)),
    )
    for task in tasks:
        payload = json.dumps(task.key_payload(), sort_keys=True, default=str)
        for leak in ("fast", "interpreter", "record_trace", "search"):
            assert leak not in payload


# -- property: random plans ---------------------------------------------------


def _pressured_job():
    return tiny_job(server=small_server(gpu_memory=64 * MiB),
                    model=tiny_model(n_layers=12, hidden=512),
                    microbatches_per_minibatch=6)


@pytest.fixture(scope="module")
def plan_pool():
    """A planner-built plan plus the job and a shared lowering."""
    job = _pressured_job()
    plan = MPress(job).build_plan()
    lowering = Lowering(job, ExecOptions(strict=False, prefetch_lead=2))
    return job, plan, lowering


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_plans_fast_equals_reference(plan_pool, data):
    """fast_path_result == reference_result over random plan subsets."""
    _job, plan, lowering = plan_pool
    keys = sorted(plan.entries, key=repr)
    keep = data.draw(st.sets(st.sampled_from(keys)), label="kept entries")
    candidate = dataclasses.replace(
        plan, entries={k: v for k, v in plan.entries.items() if k in keep})
    program = lowering.lower(candidate)
    assert wants_fast_path(program)
    fast = result_fingerprint(run_program(program))
    reference = result_fingerprint(Interpreter(program).run())
    assert fast == reference


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_random_deltas_incremental_equals_reference(plan_pool, data):
    """Incremental re-simulation after a baseline run agrees with a
    fresh reference run of the delta — resumed or not."""
    _job, plan, lowering = plan_pool
    simulator = IncrementalSimulator()
    simulator.run(lowering.lower(plan))  # warm artifacts
    keys = sorted(plan.entries, key=repr)
    dropped = data.draw(st.sampled_from(keys), label="dropped entry")
    candidate = dataclasses.replace(
        plan, entries={k: v for k, v in plan.entries.items() if k != dropped})
    program = lowering.lower(candidate)
    incremental = result_fingerprint(simulator.run(program))
    reference = result_fingerprint(Interpreter(program).run())
    assert incremental == reference

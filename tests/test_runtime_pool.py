"""Task executor and sweep runtime: ordering, parallel determinism,
caching, coalescing, and crash retry through both callers."""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    ResultCache,
    RuntimeConfig,
    SimTask,
    SweepRuntime,
    TaskExecutor,
    run_tasks,
)
from repro.runtime import task as task_module
from repro.serve import SweepServer
from repro.sim.fastpath import gc_paused
from tests.conftest import tiny_job, tiny_model

_PARENT_PID = os.getpid()


def _tiny_tasks(n_systems: int = 3):
    job = tiny_job()
    small = tiny_job(model=tiny_model(n_layers=4, hidden=128),
                     system="pipedream")
    systems = ("none", "recomputation", "gpu-cpu-swap")[:n_systems]
    tasks = [SimTask(label=f"tiny/{system}", job=job, system=system)
             for system in systems]
    tasks.append(SimTask(label="tiny-pd/none", job=small, system="none"))
    return tasks


def _dump(records):
    return json.dumps(records, sort_keys=True)


def test_results_come_back_in_submission_order():
    tasks = _tiny_tasks()
    report = run_tasks(tasks)
    assert [o.task.label for o in report.outcomes] == [t.label for t in tasks]
    assert [r["label"] for r in report.records()] == [t.label for t in tasks]


def test_parallel_and_serial_sweeps_are_byte_identical():
    tasks = _tiny_tasks()
    serial = SweepRuntime(RuntimeConfig(jobs=1)).run(tasks)
    parallel = SweepRuntime(RuntimeConfig(jobs=4)).run(tasks)
    assert serial.failed == 0 and parallel.failed == 0
    for left, right in zip(serial.records(), parallel.records()):
        assert _dump(left) == _dump(right)


def test_cache_round_trip_skips_execution(tmp_path):
    tasks = _tiny_tasks(n_systems=2)
    cache = ResultCache(str(tmp_path))
    first = SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    assert first.executed == len(tasks) and first.cached == 0
    second = SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    assert second.executed == 0 and second.cached == len(tasks)
    assert _dump(first.records()) == _dump(second.records())


def test_parallel_rerun_hits_serial_cache(tmp_path):
    tasks = _tiny_tasks(n_systems=2)
    cache = ResultCache(str(tmp_path))
    SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    rerun = SweepRuntime(RuntimeConfig(jobs=4, cache=cache)).run(tasks)
    assert rerun.cached == len(tasks) and rerun.executed == 0


def test_cache_hit_reports_callers_label(tmp_path):
    cache = ResultCache(str(tmp_path))
    job = tiny_job()
    original = SimTask(label="first-name", job=job, system="none")
    SweepRuntime(RuntimeConfig(cache=cache)).run([original])
    renamed = SimTask(label="second-name", job=job, system="none")
    report = SweepRuntime(RuntimeConfig(cache=cache)).run([renamed])
    assert report.cached == 1
    assert report.records()[0]["label"] == "second-name"


def test_progress_events_cover_every_task():
    tasks = _tiny_tasks(n_systems=2)
    events = []
    runtime = SweepRuntime(RuntimeConfig(progress=events.append))
    runtime.run(tasks)
    assert [e.done for e in events] == list(range(1, len(tasks) + 1))
    assert all(e.total == len(tasks) for e in events)
    assert all(e.ok for e in events)
    assert "[1/" in events[0].line()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(jobs=0)
    with pytest.raises(ConfigurationError):
        RuntimeConfig(retries=-1)


def test_report_summary_counts():
    report = run_tasks(_tiny_tasks(n_systems=1))
    text = report.summary()
    assert "tasks=2" in text and "failed=0" in text


# -- coalescing and cache-write failures --------------------------------------


def test_duplicate_keys_in_one_sweep_simulate_once(monkeypatch):
    calls = []

    def _counting_execute(task):
        calls.append(task.label)
        return task_module.execute_task(task)

    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _counting_execute)
    job = tiny_job()
    # The label is cosmetic and excluded from the key: dup/a and dup/b
    # are one content address.
    tasks = [
        SimTask(label="dup/a", job=job, system="none"),
        SimTask(label="other", job=job, system="recomputation"),
        SimTask(label="dup/b", job=job, system="none"),
    ]
    report = SweepRuntime(RuntimeConfig(jobs=1)).run(tasks)
    assert calls == ["dup/a", "other"]
    assert [o.source for o in report.outcomes] \
        == ["inline", "inline", "coalesced"]
    assert report.executed == 2 and report.coalesced == 1
    assert "coalesced=1" in report.summary()
    records = report.records()
    assert [r["label"] for r in records] == [t.label for t in tasks]
    assert _dump(dict(records[2], label="dup/a")) == _dump(records[0])


def _stub_execute(task):
    return {"label": task.label, "ok": True, "system": task.system}


def test_parallel_sweep_counts_every_task_once(monkeypatch):
    # More threads and workers than cores, with a short switch interval,
    # so a lost update to the shared progress count would show.
    monkeypatch.setattr("repro.runtime.pool.execute_task", _stub_execute)
    jobs = [tiny_job(), tiny_job(model=tiny_model(n_layers=4, hidden=128),
                                 system="pipedream")]
    systems = ("none", "recomputation", "gpu-cpu-swap")
    tasks = [SimTask(label=f"stress/{n}", job=jobs[n % 2],
                     system=systems[n % 3]) for n in range(36)]
    events = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = SweepRuntime(RuntimeConfig(
            jobs=4, progress=events.append)).run(tasks)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(e.done for e in events) == list(range(1, len(tasks) + 1))
    assert report.executed == 6 and report.coalesced == 30
    assert [r["label"] for r in report.records()] == [t.label for t in tasks]


class _FullDiskCache(ResultCache):
    """A cache whose every write fails as on a full disk."""

    def put(self, key, record):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failing_cache_put_still_delivers_the_record(tmp_path, monkeypatch):
    started = threading.Event()
    release = threading.Event()

    def _slow_execute(task):
        started.set()
        release.wait(timeout=30)
        return task_module.execute_task(task)

    monkeypatch.setattr("repro.runtime.pool.execute_task", _slow_execute)
    cache = _FullDiskCache(str(tmp_path))
    executor = TaskExecutor(workers=0, cache=cache)
    task = SimTask(label="full/none", job=tiny_job(), system="none")
    outcomes = [None, None, None]

    def run(n):
        outcomes[n] = executor.execute(task)

    # Daemon threads: a wedged key must fail the test, not hang pytest.
    owner = threading.Thread(target=run, args=(0,), daemon=True)
    owner.start()
    assert started.wait(timeout=10)
    waiter = threading.Thread(target=run, args=(1,), daemon=True)
    waiter.start()
    # The waiter parks on the in-flight entry before the owner's
    # simulation (and its failing cache write) may finish.
    threading.Event().wait(timeout=0.2)
    release.set()
    owner.join(timeout=30)
    waiter.join(timeout=30)
    assert not owner.is_alive() and not waiter.is_alive(), "wedged"
    assert [o.source for o in outcomes[:2]] == ["inline", "coalesced"]

    # A later request for the same key is not wedged either.
    later = threading.Thread(target=run, args=(2,), daemon=True)
    later.start()
    later.join(timeout=30)
    assert not later.is_alive(), "key wedged after a failed cache write"
    assert all(o.ok for o in outcomes)
    assert executor.cache_write_failures == 2
    assert executor.counters()["cache_write_failures"] == 2

    report = SweepRuntime(RuntimeConfig(cache=cache)).run([task])
    assert report.failed == 0 and report.executed == 1
    assert _dump(report.records()) == _dump([outcomes[0].record])


# -- crash/retry semantics ---------------------------------------------------
#
# ``_poisoned_execute`` replaces the pool's ``execute_task`` reference.
# With the fork start method, workers inherit both this module and the
# monkeypatch, so a task labelled ``bad/*`` kills its worker with
# ``os._exit`` (unhandleable, like a segfault), while the same task in
# the parent's inline fallback raises an ordinary exception instead —
# never taking pytest down.


def _poisoned_execute(task):
    if task.label.startswith("bad/"):
        if os.getpid() != _PARENT_PID:
            os._exit(17)
        raise RuntimeError("poisoned config")
    return task_module.execute_task(task)


def _raising_execute(task):
    raise ValueError("boom")


def test_inline_failure_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _poisoned_execute)
    bad = SimTask(label="bad/only", job=tiny_job(), system="none")
    report = SweepRuntime(RuntimeConfig(jobs=1, retries=1)).run([bad])
    outcome = report.outcomes[0]
    assert not outcome.ok
    assert outcome.record is None
    assert "RuntimeError" in outcome.error
    assert outcome.attempts == 2          # retries + 1
    assert report.failed == 1


class _RuntimeCaller:
    """One ``SweepRuntime`` per request, as ``repro sweep`` runs."""

    def __init__(self, jobs, retries):
        self.config = RuntimeConfig(jobs=jobs, retries=retries)
        self.pool_generations = 0

    def run(self, tasks):
        report = SweepRuntime(self.config).run(tasks)
        self.pool_generations = report.pool_generations
        return [{"label": o.task.label, "ok": o.ok, "source": o.source,
                 "attempts": o.attempts, "error": o.error}
                for o in report.outcomes]

    def close(self):
        pass


class _ServerCaller:
    """One long-lived ``SweepServer`` serving every request."""

    def __init__(self, jobs, retries):
        self.server = SweepServer(port=0, jobs=jobs, retries=retries).start()

    @property
    def pool_generations(self):
        return self.server.backend.pool_generations

    def run(self, tasks):
        state = self.server.submit("alice", 0, tasks)
        self.server.registry.wait(state.id, until_done=True, timeout=300.0)
        detail = self.server.registry.detail(state.id)
        assert detail["status"] == "done"
        return detail["tasks"]

    def close(self):
        self.server.stop()


@pytest.fixture(params=[_RuntimeCaller, _ServerCaller],
                ids=["runtime", "server"])
def caller(request):
    # The pool forks lazily on the first task, so a test's monkeypatch
    # of ``execute_task`` reaches the server's workers too.
    instance = request.param(jobs=2, retries=1)
    yield instance
    instance.close()


def test_worker_crash_is_excluded_and_survivors_finish(monkeypatch, caller):
    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _poisoned_execute)
    job = tiny_job()
    # Three distinct content addresses (the label is cosmetic and
    # excluded from the key): the crasher must not coalesce onto a
    # healthy task, or vice versa.
    tasks = [
        SimTask(label="tiny/none", job=job, system="none"),
        SimTask(label="bad/crasher", job=job, system="gpu-cpu-swap"),
        SimTask(label="tiny/recomputation", job=job,
                system="recomputation"),
    ]
    rows = caller.run(tasks)
    by_label = {row["label"]: row for row in rows}
    crashed = by_label["bad/crasher"]
    assert not crashed["ok"]
    assert crashed["source"] == "inline"  # excluded from the pool
    assert "RuntimeError" in crashed["error"]
    assert crashed["attempts"] == 3       # retries + 1 + inline
    assert by_label["tiny/none"]["ok"]
    assert by_label["tiny/recomputation"]["ok"]
    assert sum(not row["ok"] for row in rows) == 1
    assert caller.pool_generations >= 2   # the broken pool was rebuilt
    # Submission order is preserved even through crash recovery.
    assert [row["label"] for row in rows] == [t.label for t in tasks]
    # The caller is still healthy for the next request.
    after = caller.run([SimTask(label="tiny/after", job=job, system="none")])
    assert after[0]["ok"]


def test_worker_exception_retries_then_records(monkeypatch, caller):
    # An ordinary exception in a worker (pool stays healthy) is also
    # retried and ultimately recorded, not raised.
    monkeypatch.setattr("repro.runtime.pool.execute_task", _raising_execute)
    rows = caller.run([SimTask(label="tiny/none", job=tiny_job(),
                               system="none")])
    outcome = rows[0]
    assert not outcome["ok"]
    assert "ValueError" in outcome["error"]
    assert outcome["source"] == "inline"
    assert outcome["attempts"] == 3       # retries + 1 + inline


def _collector_enabled() -> bool:
    return gc.isenabled()


def test_pool_workers_run_with_the_collector_on():
    """Workers forked while the parent had the collector paused must
    not inherit it paused for the rest of their life."""
    executor = TaskExecutor(workers=1)
    try:
        with gc_paused():
            pool = executor._ensure_pool()
        assert pool.submit(_collector_enabled).result(timeout=60)
    finally:
        executor.shutdown()


def test_executor_validation():
    with pytest.raises(ConfigurationError):
        TaskExecutor(workers=-1)
    with pytest.raises(ConfigurationError):
        TaskExecutor(retries=-1)
    with pytest.raises(ConfigurationError):
        SweepServer(port=0, jobs=0)

"""Fair-share scheduler: tenant alternation, priorities, FIFO, close,
bounded per-tenant backlog."""

from __future__ import annotations

import threading

import pytest

from repro.errors import BacklogFullError
from repro.runtime.task import SimTask
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import FairShareScheduler, TaskUnit
from repro.serve.schemas import MAX_TASKS_PER_REQUEST, MAX_TENANT_BACKLOG
from tests.conftest import tiny_job


@pytest.fixture(scope="module")
def task():
    return SimTask(label="sched/unit", job=tiny_job(), system="none")


def _units(task, tenant, n, job_id="j1", priority=0):
    return [TaskUnit(tenant=tenant, job_id=job_id, index=i, task=task,
                     priority=priority) for i in range(n)]


def _drain(scheduler, n):
    order = []
    for _ in range(n):
        unit = scheduler.next_unit(timeout=1.0)
        assert unit is not None
        order.append(unit)
    return order


def test_single_tenant_is_fifo(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 4))
    order = _drain(scheduler, 4)
    assert [u.index for u in order] == [0, 1, 2, 3]


def test_two_tenants_alternate_regardless_of_queue_depth(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "alice", 6, job_id="wide"))
    scheduler.submit(_units(task, "bob", 2, job_id="narrow"))
    order = [u.tenant for u in _drain(scheduler, 8)]
    # Least-service-first: the first four dispatches alternate, so
    # bob's whole job clears while alice is only two units in.
    assert order[:4] == ["alice", "bob", "alice", "bob"]
    assert order[4:] == ["alice"] * 4


def test_late_arriving_tenant_preempts_backlog(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "alice", 4))
    _drain(scheduler, 2)                     # alice's service is now 2
    scheduler.submit(_units(task, "bob", 2))
    order = [u.tenant for u in _drain(scheduler, 4)]
    # bob is behind on service, so both of his units go first.
    assert order == ["bob", "bob", "alice", "alice"]


def test_three_tenants_round_robin(task):
    scheduler = FairShareScheduler()
    for tenant in ("c", "a", "b"):
        scheduler.submit(_units(task, tenant, 2))
    order = [u.tenant for u in _drain(scheduler, 6)]
    # Ties on service break on tenant name.
    assert order == ["a", "b", "c", "a", "b", "c"]


def test_priority_orders_within_a_tenant(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 2, job_id="low", priority=0))
    scheduler.submit(_units(task, "a", 2, job_id="high", priority=5))
    order = [(u.job_id, u.index) for u in _drain(scheduler, 4)]
    assert order == [("high", 0), ("high", 1), ("low", 0), ("low", 1)]


def test_equal_priority_is_submission_fifo(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 2, job_id="first", priority=3))
    scheduler.submit(_units(task, "a", 2, job_id="second", priority=3))
    order = [u.job_id for u in _drain(scheduler, 4)]
    assert order == ["first", "first", "second", "second"]


def test_priority_does_not_cross_tenants(task):
    # Fair share dominates priority: a high-priority flood from one
    # tenant cannot starve another tenant's low-priority work.
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "loud", 3, priority=100))
    scheduler.submit(_units(task, "quiet", 1, priority=0))
    order = [u.tenant for u in _drain(scheduler, 4)]
    assert order == ["loud", "quiet", "loud", "loud"]


def test_next_unit_times_out_on_empty_queue(task):
    scheduler = FairShareScheduler()
    assert scheduler.next_unit(timeout=0.05) is None


def test_close_wakes_blocked_consumers(task):
    scheduler = FairShareScheduler()
    results = []
    thread = threading.Thread(
        target=lambda: results.append(scheduler.next_unit(timeout=5.0)))
    thread.start()
    scheduler.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [None]


def test_submit_after_close_raises(task):
    scheduler = FairShareScheduler()
    scheduler.close()
    with pytest.raises(RuntimeError):
        scheduler.submit(_units(task, "a", 1))


def test_close_drains_remaining_units(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 2))
    scheduler.close()
    # Queued work is still handed out after close; only emptiness
    # returns None.
    assert scheduler.next_unit(timeout=1.0) is not None
    assert scheduler.next_unit(timeout=1.0) is not None
    assert scheduler.next_unit(timeout=1.0) is None


def test_backlog_and_service_accounting(task):
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 3))
    scheduler.submit(_units(task, "b", 1))
    assert scheduler.backlog() == {"a": 3, "b": 1}
    _drain(scheduler, 2)
    assert scheduler.service() == {"a": 1, "b": 1}
    assert scheduler.backlog() == {"a": 2}


def test_backlog_cap_leaves_room_for_whole_requests():
    assert MAX_TENANT_BACKLOG >= 8 * MAX_TASKS_PER_REQUEST


def test_batch_past_the_backlog_cap_is_refused_whole(task, monkeypatch):
    monkeypatch.setattr(scheduler_module, "MAX_TENANT_BACKLOG", 3)
    scheduler = FairShareScheduler()
    scheduler.submit(_units(task, "a", 2))
    with pytest.raises(BacklogFullError, match="'a'"):
        scheduler.submit(_units(task, "b", 1) + _units(task, "a", 2))
    assert scheduler.backlog() == {"a": 2}      # nothing of the batch queued
    scheduler.submit(_units(task, "a", 1) + _units(task, "b", 3))
    _drain(scheduler, 1)                         # dispatch frees room
    scheduler.submit(_units(task, "a", 1))
    assert scheduler.backlog() == {"a": 3, "b": 3}

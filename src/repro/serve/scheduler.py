"""Fair-share, priority-aware task scheduling across tenants.

The server decomposes every submitted job into :class:`TaskUnit`\\ s —
one simulation each — and feeds them through one
:class:`FairShareScheduler`.  Dispatcher threads pull units one at a
time, so scheduling decisions happen at simulation granularity: a
tenant that submitted a 200-cell sweep cannot lock out a tenant that
arrives a moment later with a 2-cell one.

Policy (deterministic, so tests can pin it):

* **across tenants** — least-service-first: the next unit comes from
  the tenant with the fewest units dispatched so far among tenants
  with queued work; ties break on tenant name.  Two tenants with
  steady backlogs therefore alternate 1:1 regardless of queue depth.
* **within a tenant** — highest ``priority`` first, FIFO within a
  priority level (submission sequence).

Service is charged at dispatch time, one unit per task, including
units later resolved by the cache — the charge model is "scheduler
attention", not simulation seconds.

A tenant's queue is bounded: a batch that would leave more than
:data:`~repro.serve.schemas.MAX_TENANT_BACKLOG` of its units queued
is refused whole with :class:`~repro.errors.BacklogFullError`.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import BacklogFullError
from repro.runtime.task import SimTask
from repro.serve.schemas import MAX_TENANT_BACKLOG


@dataclass(frozen=True)
class TaskUnit:
    """One schedulable simulation: a task plus its queueing identity."""

    tenant: str
    job_id: str
    index: int             # position within the job's task list
    task: SimTask
    priority: int = 0
    seq: int = 0           # global submission sequence (FIFO tiebreak)

    def sort_key(self):
        return (-self.priority, self.seq)


@dataclass
class _TenantQueue:
    service: int = 0
    heap: List = field(default_factory=list)

    def push(self, unit: TaskUnit) -> None:
        heapq.heappush(self.heap, (unit.sort_key(), unit))

    def pop(self) -> TaskUnit:
        return heapq.heappop(self.heap)[1]

    def __len__(self) -> int:
        return len(self.heap)


class FairShareScheduler:
    """Thread-safe multi-tenant unit queue (see module docstring)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._tenants: Dict[str, _TenantQueue] = {}
        self._seq = 0
        self._closed = False

    def submit(self, units: Sequence[TaskUnit]) -> List[TaskUnit]:
        """Enqueue units (stamping their global sequence numbers).

        All or nothing: if any tenant would end up with more than
        ``MAX_TENANT_BACKLOG`` queued units, nothing is enqueued and
        :class:`BacklogFullError` is raised.
        """
        stamped: List[TaskUnit] = []
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            for tenant, n in Counter(unit.tenant for unit in units).items():
                queue = self._tenants.get(tenant)
                queued = len(queue) if queue is not None else 0
                if queued + n > MAX_TENANT_BACKLOG:
                    raise BacklogFullError(
                        f"tenant {tenant!r} has {queued} queued tasks; "
                        f"{n} more would exceed the backlog cap of "
                        f"{MAX_TENANT_BACKLOG}")
            for unit in units:
                self._seq += 1
                unit = TaskUnit(tenant=unit.tenant, job_id=unit.job_id,
                                index=unit.index, task=unit.task,
                                priority=unit.priority, seq=self._seq)
                queue = self._tenants.get(unit.tenant)
                if queue is None:
                    queue = self._tenants[unit.tenant] = _TenantQueue()
                queue.push(unit)
                stamped.append(unit)
            self._cond.notify_all()
        return stamped

    def next_unit(self, timeout: Optional[float] = None) -> Optional[TaskUnit]:
        """Dequeue the next unit, blocking; None when closed or timed out."""
        with self._cond:
            while True:
                candidates = [(queue.service, name)
                              for name, queue in self._tenants.items()
                              if len(queue)]
                if candidates:
                    _, name = min(candidates)
                    queue = self._tenants[name]
                    queue.service += 1
                    return queue.pop()
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def close(self) -> None:
        """Stop the queue: blocked ``next_unit`` calls return None."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ----------------------------------------------------

    def backlog(self) -> Dict[str, int]:
        with self._cond:
            return {name: len(queue)
                    for name, queue in self._tenants.items() if len(queue)}

    def service(self) -> Dict[str, int]:
        """Units dispatched per tenant since the server started."""
        with self._cond:
            return {name: queue.service
                    for name, queue in self._tenants.items()}

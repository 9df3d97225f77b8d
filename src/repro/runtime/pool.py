"""The sweep runtime: one task executor behind both ways of sweeping.

:class:`TaskExecutor` resolves one task at a time and is thread-safe.
``repro serve`` calls it from its dispatcher threads for the life of
the server; :class:`SweepRuntime` calls it from ``jobs`` threads for
one sweep and closes it before returning.  A task resolves through:

1. **cache** — a task whose content address is already on disk
   returns instantly, re-labelled with the caller's label;
2. **coalescing** — concurrent requests for one content address run
   *one* simulation; the others wait for the owner's outcome;
3. **pool** — a persistent fork pool of ``workers`` processes runs up
   to ``retries`` + 1 attempts.  A worker death breaks the pool: that
   *pool generation* is discarded and rebuilt, and every task in
   flight on it is charged one attempt (a broken pool cannot say
   which task killed it);
4. **exclusion** — a task that exhausts its pool attempts is
   attempted once inline in the parent, where a poisoned config
   raises a catchable exception instead of killing a worker, so one
   bad task can never wedge the sweep.

An executor with ``workers=0`` has no pool: every attempt, ``retries``
+ 1 of them, runs inline.  Persistent errors are recorded per task,
never raised.  :class:`SweepRuntime` returns results **in submission
order**, so a sweep's output is byte-identical whatever ``jobs`` is.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.task import SimTask, execute_task


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick, emitted as each task resolves."""

    done: int
    total: int
    label: str
    source: str            # "cache" | "pool" | "inline" | "coalesced"
    ok: bool
    elapsed: float

    def line(self) -> str:
        status = "" if self.ok else " FAILED"
        return (f"[{self.done}/{self.total}] {self.source:<6} "
                f"{self.label}{status} ({self.elapsed:.1f}s)")


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one sweep execution."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    retries: int = 2
    progress: Optional[Callable[[ProgressEvent], None]] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("runtime jobs must be >= 1")
        if self.retries < 0:
            raise ConfigurationError("runtime retries must be >= 0")


@dataclass
class TaskOutcome:
    """How one task resolved."""

    task: SimTask
    record: Optional[Dict]
    source: str            # "cache" | "pool" | "inline" | "coalesced" | "error"
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.record is not None

    def shared_with(self, task: SimTask) -> "TaskOutcome":
        """This outcome as seen by ``task``, a duplicate coalesced onto it."""
        record = (dict(self.record, label=task.label)
                  if self.record is not None else None)
        return TaskOutcome(task=task, record=record, source="coalesced",
                           error=self.error)


def _worker_init() -> None:
    """Give pool workers the default SIGTERM action.

    A fork inherits the parent's Python signal handlers, and ``repro
    serve`` traps SIGTERM; a worker must still die on it.  A fork
    taken while another thread had the garbage collector paused
    (:func:`repro.sim.fastpath.gc_paused`) inherits it off, so the
    worker turns it back on.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    gc.enable()


def _warmup() -> int:
    """No-op worker task used to pre-spawn pool processes."""
    return os.getpid()


@dataclass
class _Inflight:
    """Rendezvous for requests coalesced onto one running simulation."""

    done: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[TaskOutcome] = None


class TaskExecutor:
    """Resolve tasks through cache, coalescing, pool and exclusion.

    Thread-safe: any number of threads may call :meth:`execute`
    concurrently.  The pool is created on first use and lives until
    :meth:`shutdown`.
    """

    def __init__(self, workers: int = 1, cache: Optional[ResultCache] = None,
                 retries: int = 2):
        if workers < 0:
            raise ConfigurationError("executor workers must be >= 0")
        if retries < 0:
            raise ConfigurationError("executor retries must be >= 0")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._inflight: Dict[str, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.executed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.failures = 0
        self.inline_runs = 0
        self.pool_generations = 0
        self.cache_write_failures = 0

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            if self._pool is None:
                import multiprocessing

                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:          # pragma: no cover — non-POSIX
                    context = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                                 mp_context=context,
                                                 initializer=_worker_init)
                self.pool_generations += 1
                # Spawn the workers now, before other threads are
                # hammering the queue, so forks happen from a quiet
                # process.
                for future in [self._pool.submit(_warmup)
                               for _ in range(self.workers)]:
                    try:
                        future.result()
                    except BrokenProcessPool:   # pragma: no cover
                        break
            return self._pool

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Throw away a broken pool generation (next use rebuilds)."""
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the pool and wait for its workers to exit."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- execution --------------------------------------------------------

    def execute(self, task: SimTask) -> TaskOutcome:
        """Resolve one task: cache hit, else :meth:`resolve`."""
        key = task.cache_key()
        hit = self.lookup(task, key)
        return hit if hit is not None else self.resolve(task, key)

    def lookup(self, task: SimTask, key: str) -> Optional[TaskOutcome]:
        """The cached outcome of ``key``, re-labelled for ``task``.

        The stored label belongs to whichever caller produced the
        entry; the caller's own label is reported instead.
        """
        if self.cache is None:
            return None
        record = self.cache.get(key)
        if record is None:
            return None
        with self._counter_lock:
            self.cache_hits += 1
        return TaskOutcome(task=task, record=dict(record, label=task.label),
                           source="cache")

    def resolve(self, task: SimTask, key: str) -> TaskOutcome:
        """Run a cache miss once, however many callers ask for ``key``.

        The first caller becomes the owner and simulates; concurrent
        callers wait for its outcome.  Never raises on task failure.
        """
        with self._inflight_lock:
            entry = self._inflight.get(key)
            owner = entry is None
            if owner:
                entry = self._inflight[key] = _Inflight()
        if not owner:
            entry.done.wait()
            outcome = entry.outcome.shared_with(task)
            with self._counter_lock:
                self.coalesced += 1
                if not outcome.ok:
                    self.failures += 1
            return outcome

        outcome = TaskOutcome(task=task, record=None, source="error",
                              error="executor aborted")
        try:
            outcome = self._attempt(task)
            self._store(key, outcome)
            with self._counter_lock:
                if outcome.ok:
                    self.executed += 1
                else:
                    self.failures += 1
        finally:
            # Publish only after the cache write, or a request landing
            # between the two would miss both layers and re-simulate.
            # Publish even if the run or the write raised, so neither
            # a waiter nor a later request for ``key`` blocks forever.
            entry.outcome = outcome
            with self._inflight_lock:
                del self._inflight[key]
            entry.done.set()
        return outcome

    def _store(self, key: str, outcome: TaskOutcome) -> None:
        if not outcome.ok or self.cache is None:
            return
        try:
            self.cache.put(key, outcome.record)
        except OSError:
            # A full or read-only disk loses the entry, not the record.
            with self._counter_lock:
                self.cache_write_failures += 1

    def _attempt(self, task: SimTask) -> TaskOutcome:
        """Pool attempts up to ``retries`` + 1, then the exclusion."""
        if self.workers == 0:
            return self._run_inline(task, budget=self.retries + 1)
        attempts = 0
        while attempts <= self.retries:
            pool = self._ensure_pool()
            try:
                future = pool.submit(execute_task, task)
            except RuntimeError:
                # Broken (BrokenProcessPool is a RuntimeError) or shut
                # down by a concurrent task's crash: rebuild without
                # charging this task an attempt.
                self._discard_pool(pool)
                continue
            attempts += 1
            try:
                return TaskOutcome(task=task, record=future.result(),
                                   source="pool", attempts=attempts)
            except BrokenProcessPool:
                # A worker died (crash, OOM-kill): this generation is
                # gone.  Rebuild; the task has been charged.
                self._discard_pool(pool)
            except Exception:       # noqa: BLE001 — retried, then inline
                pass
        return self._run_inline(task, budget=1, prior_attempts=attempts)

    def _run_inline(self, task: SimTask, budget: int,
                    prior_attempts: int = 0) -> TaskOutcome:
        """Up to ``budget`` attempts in this process."""
        with self._counter_lock:
            self.inline_runs += 1
        error = None
        for attempt in range(1, budget + 1):
            try:
                record = execute_task(task)
            except Exception as exc:   # noqa: BLE001 — recorded per task
                error = f"{type(exc).__name__}: {exc}"
                continue
            return TaskOutcome(task=task, record=record, source="inline",
                               attempts=prior_attempts + attempt)
        return TaskOutcome(task=task, record=None, source="inline",
                           attempts=prior_attempts + budget, error=error)

    # -- introspection ----------------------------------------------------

    def counters(self) -> Dict:
        with self._counter_lock:
            return {
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "coalesced": self.coalesced,
                "failures": self.failures,
                "inline_runs": self.inline_runs,
                "pool_generations": self.pool_generations,
                "cache_write_failures": self.cache_write_failures,
            }


@dataclass
class RuntimeReport:
    """Everything one ``run`` produced, in submission order."""

    outcomes: List[TaskOutcome]
    elapsed: float
    pool_generations: int = 1

    def records(self) -> List[Optional[Dict]]:
        return [outcome.record for outcome in self.outcomes]

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and o.source in ("pool", "inline"))

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    @property
    def coalesced(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "coalesced")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def tasks_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed

    def summary(self) -> str:
        return (f"tasks={len(self.outcomes)} executed={self.executed} "
                f"cached={self.cached} coalesced={self.coalesced} "
                f"failed={self.failed} retried={self.retried} "
                f"elapsed={self.elapsed:.2f}s "
                f"({self.tasks_per_second:.2f} tasks/s)")


class SweepRuntime:
    """Executes independent simulation tasks, possibly in parallel.

    ``jobs=1`` runs every task inline in the calling thread (no pool,
    for determinism and debugging); ``jobs>1`` fans them over a pool
    of ``jobs`` workers that lives for one :meth:`run`.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        self.config = config if config is not None else RuntimeConfig()

    def run(self, tasks: Sequence[SimTask]) -> RuntimeReport:
        started = time.time()
        config = self.config
        tasks = list(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        done_count = 0
        lock = threading.Lock()

        def emit(index: int, outcome: TaskOutcome) -> None:
            nonlocal done_count
            with lock:
                outcomes[index] = outcome
                done_count += 1
                if config.progress is not None:
                    config.progress(ProgressEvent(
                        done=done_count,
                        total=len(tasks),
                        label=outcome.task.label,
                        source=outcome.source,
                        ok=outcome.ok,
                        elapsed=time.time() - started,
                    ))

        executor = TaskExecutor(workers=config.jobs if config.jobs > 1 else 0,
                                cache=config.cache, retries=config.retries)
        try:
            # Layer 1: cache hits.  Misses are grouped by content
            # address; each group resolves once, and its duplicates
            # are coalesced onto the first copy.
            groups: Dict[str, List[int]] = {}
            for index, task in enumerate(tasks):
                key = task.cache_key()
                hit = None if key in groups else executor.lookup(task, key)
                if hit is not None:
                    emit(index, hit)
                else:
                    groups.setdefault(key, []).append(index)

            # Layers 2-4: resolve one copy per missed address.
            def resolve(item) -> None:
                key, (first, *duplicates) = item
                outcome = executor.resolve(tasks[first], key)
                emit(first, outcome)
                for index in duplicates:
                    emit(index, outcome.shared_with(tasks[index]))

            if config.jobs == 1:
                for item in groups.items():
                    resolve(item)
            else:
                with ThreadPoolExecutor(max_workers=config.jobs) as threads:
                    list(threads.map(resolve, groups.items()))
        finally:
            executor.shutdown()

        return RuntimeReport(
            outcomes=[o for o in outcomes if o is not None],
            elapsed=time.time() - started,
            pool_generations=max(1, executor.pool_generations),
        )


def run_tasks(
    tasks: Sequence[SimTask],
    runtime: Optional[SweepRuntime] = None,
) -> RuntimeReport:
    """Run tasks through ``runtime`` (default: serial, uncached)."""
    if runtime is None:
        runtime = SweepRuntime()
    return runtime.run(tasks)

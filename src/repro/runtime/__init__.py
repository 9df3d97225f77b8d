"""Parallel sweep runtime with content-addressed result caching.

Design-space sweeps (the paper's Figures 7-9 and the resilience
grids) are embarrassingly parallel and heavily repetitive — the same
cells recur across benchmarks, CLI invocations, and CI runs.  This
package makes those sweeps fast and repeatable:

* :class:`SimTask` — one simulation as picklable, hashable data;
* :class:`ResultCache` — content-addressed on-disk records, keyed by
  a canonical hash of (job, system, planner config, fault schedule,
  plan, code salt);
* :class:`TaskExecutor` — resolves one task through the cache,
  in-flight coalescing, a persistent process pool and worker-crash
  retry with exclusion; ``repro serve`` shares one across requests;
* :class:`SweepRuntime` — fans a sweep's tasks over an executor with
  deterministic result ordering and structured progress reporting;
* :mod:`repro.runtime.presets` — the named grids of the paper's
  figures, shared by the CLI and the benchmark suite.

See ``docs/runtime.md`` for cache layout and invalidation rules.
"""

from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.pool import (
    ProgressEvent,
    RuntimeConfig,
    RuntimeReport,
    SweepRuntime,
    TaskExecutor,
    TaskOutcome,
    run_tasks,
)
from repro.runtime.presets import preset_tasks
from repro.runtime.task import (
    RECORD_VERSION,
    RUNTIME_CACHE_SALT,
    SimTask,
    execute_task,
    peak_gib,
    trace_digest,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "ProgressEvent",
    "RuntimeConfig",
    "RuntimeReport",
    "SweepRuntime",
    "TaskExecutor",
    "TaskOutcome",
    "run_tasks",
    "preset_tasks",
    "RECORD_VERSION",
    "RUNTIME_CACHE_SALT",
    "SimTask",
    "execute_task",
    "peak_gib",
    "trace_digest",
]

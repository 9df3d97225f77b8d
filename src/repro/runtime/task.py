"""Sweep tasks: one content-addressed simulation unit.

A :class:`SimTask` is the runtime's unit of work — everything one
simulation needs, as picklable data (no callables), so it can cross a
process boundary and be hashed into a cache key.  Which optional
fields are set picks the task's *kind*:

* **train** — ``run_system(job, system)`` (the Figures 7/8 columns),
  ``MPress(job, config)`` under an explicit planner configuration
  (the Figure 9 ablations), or ``simulate(job, plan)`` replaying a
  fixed plan; any of them optionally under a fault campaign;
* **zero** — the analytic ZeRO-Offload/Infinity baselines;
* **hybrid** — single-server DP x PP (``run_hybrid``);
* **cluster** — one given TP x DP x PP shape over a multi-server
  :class:`~repro.hardware.cluster.Cluster` (``run_cluster``);
* **autoplan** — a TP x DP x PP shape search over a cluster;
* **inference** — an LLM serving episode (``run_serving``).

Each kind is defined once, as a row of the private ``_KINDS`` table:
the optional fields it requires and allows, the systems it accepts,
the keys it adds to the cache-key payload, and its executor.

Executing a task produces a plain-JSON *record* (metrics, per-GPU
peaks, the plan payload, a trace digest) rather than the live
``SimulationResult`` — records are small, picklable, cacheable, and
deterministic, which is what makes content-addressed caching and
golden-trace regression possible.  Every record carries the same 16
fields (:func:`_record`); hybrid, cluster, autoplan and inference
records add one sub-dict named after their kind, and ZeRO records
fill the shared ``zero`` field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.autoplan.search import AutoPlanConfig
from repro.core.plan import MemorySavingPlan
from repro.core.planner import PlannerConfig
from repro.core.serialization import (
    canonical_payload,
    config_digest,
    plan_to_dict,
)
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.inference.workload import InferenceConfig
from repro.job import TrainingJob
from repro.jobspec import SYSTEMS, ZERO_SYSTEMS
from repro.parallel.cluster import ClusterConfig
from repro.parallel.hybrid import HybridConfig

# Code-relevant version salt: bump whenever simulator/planner
# semantics change, so stale cache entries can never satisfy a sweep
# run against newer code (see docs/runtime.md).
RUNTIME_CACHE_SALT = "repro-runtime-1"

# Schema version of the record dicts below.
RECORD_VERSION = 1


@dataclass(frozen=True)
class SimTask:
    """One independent simulation in a sweep.

    ``label`` is cosmetic (progress lines, tables) and excluded from
    the cache key; every other field is semantic.  The optional fields
    that are set select the task's :attr:`kind` (see the module
    docstring); fields outside that kind's row are a
    :class:`ConfigurationError`.  For hybrid, cluster and autoplan
    tasks ``system`` names the per-replica (per-chain) memory system;
    for inference tasks it is cosmetic and the serving config's
    ``kv_swap`` selects the memory policy.
    """

    label: str
    job: TrainingJob
    system: str = "mpress"
    config: Optional[PlannerConfig] = None
    faults: Optional[FaultSchedule] = None
    plan: Optional[MemorySavingPlan] = None
    hybrid: Optional[HybridConfig] = None
    cluster: Optional[Cluster] = None
    cluster_config: Optional[ClusterConfig] = None
    autoplan: Optional[AutoPlanConfig] = None
    inference: Optional[InferenceConfig] = None

    def __post_init__(self) -> None:
        kind = _kind_of(self)
        present = {name for name in _OPTIONAL
                   if getattr(self, name) is not None}
        missing = [name for name in kind.requires if name not in present]
        extra = [name for name in _OPTIONAL if name in present
                 and name not in kind.requires + kind.allows]
        if missing or extra:
            problems = ([f"need {', '.join(missing)}"] if missing else []) \
                + ([f"take no {', '.join(extra)}"] if extra else [])
            raise ConfigurationError(
                f"{kind.name} tasks ({kind.summary}) "
                f"{' and '.join(problems)}")
        if self.system not in kind.systems:
            raise ConfigurationError(
                f"{kind.name} tasks ({kind.summary}) take one of the "
                f"systems {list(kind.systems)}, not {self.system!r}")

    @property
    def kind(self) -> str:
        """Name of this task's row in the kind table."""
        return _kind_of(self).name

    def key_payload(self) -> Dict:
        """The semantic content hashed into the cache key.

        Only a kind's own keys (its row's ``keys``) join the five base
        keys, so the payloads — and therefore the content addresses —
        of every train and ZeRO task are byte-identical to what they
        were before hybrid, cluster, autoplan and inference tasks
        existed, and shared cache directories stay warm.

        Execution strategy is deliberately absent: the fast-path tape
        interpreter and the reference interpreter produce bit-identical
        records (docs/fastpath.md, tests/test_fastpath_equivalence.py),
        so fast-path results share cache entries with full simulations
        and a cache warmed by either path serves both.
        """
        payload = {
            "job": canonical_payload(self.job),
            "system": self.system,
            "config": canonical_payload(self.config),
            "faults": canonical_payload(self.faults),
            "plan": (
                canonical_payload(plan_to_dict(self.plan))
                if self.plan is not None else None
            ),
        }
        for name in _kind_of(self).keys:
            payload[name] = canonical_payload(getattr(self, name))
        return payload

    def cache_key(self) -> str:
        """Content address of this task's result."""
        return config_digest(self.key_payload(), salt=RUNTIME_CACHE_SALT)


# SimTask's optional fields, in declaration order.
_OPTIONAL = tuple(field.name for field in dataclasses.fields(SimTask)
                  if field.default is None)


def trace_digest(trace) -> str:
    """SHA-256 of the chrome-trace lowering of a simulation trace.

    Byte-identical re-simulation implies equal digests; goldens and
    cache records store the digest instead of the (large) trace.
    """
    from repro.sim.chrome_trace import trace_to_events

    text = json.dumps(
        trace_to_events(trace), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_task(task: SimTask) -> Dict:
    """Run one task to completion and lower the outcome to a record.

    This is the function sweep workers execute; everything it returns
    must be plain JSON so the result cache can persist it verbatim.
    """
    return _kind_of(task).execute(task)


# -- records ---------------------------------------------------------------

# Stand-in result for a record with nothing to report.
_NO_RESULT = SimpleNamespace(ok=False, oom=None, tflops=0.0,
                             samples_per_second=0.0, minibatch_time=0.0,
                             makespan=0.0)


def _record(task: SimTask, result, *, feasible, peaks=(), trace=None,
            plan=None, **sub) -> Dict:
    """The 16 fields every record shares, then the kind's ``sub`` dict.

    ``result`` is anything with ``ok``/``oom``/``tflops``/
    ``samples_per_second``/``minibatch_time``/``makespan``; makespan,
    ``peaks`` and the ``trace`` digest are only reported for runs that
    fit.  ``sub`` may also replace a shared field in place (``zero``,
    ``resilience``, a hybrid run's ``oom``).
    """
    ok = result.ok
    record = {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": ok,
        "oom": str(result.oom) if result.oom is not None else None,
        "tflops": result.tflops,
        "samples_per_second": result.samples_per_second,
        "minibatch_time": result.minibatch_time,
        "makespan": result.makespan if ok else 0.0,
        "peak_bytes_per_gpu": list(peaks) if ok else [],
        "feasible": feasible,
        "plan": plan_to_dict(plan) if plan is not None else None,
        "trace_digest": (
            trace_digest(trace) if ok and trace is not None else None),
        "n_trace_events": (
            len(trace.events) if ok and trace is not None else 0),
        "resilience": None,
        "zero": None,
    }
    record.update(sub)
    return record


def _stage_allreduce(syncs) -> List[Dict]:
    """Record rendering of per-stage gradient all-reduce accounting."""
    return [dict(dataclasses.asdict(sync), devices=list(sync.devices))
            for sync in syncs]


# -- executors, one per kind -------------------------------------------------


def _execute_train(task: SimTask) -> Dict:
    if task.plan is not None:
        from repro.sim.executor import simulate

        simulation = simulate(
            task.job, task.plan, strict=True, faults=task.faults
        )
        plan, feasible = task.plan, None
    else:
        if task.config is not None:
            from repro.core.mpress import MPress

            result = MPress(task.job, task.config, faults=task.faults).run()
        else:
            from repro.core.mpress import run_system

            result = run_system(task.job, task.system, faults=task.faults)
        simulation, plan = result.simulation, result.plan
        feasible = result.planner_report.feasible
    report = simulation.resilience
    resilience = None
    if report is not None:
        resilience = {
            "n_faults": len(task.faults) if task.faults is not None else 0,
            "n_failures": len(report.failures),
            "goodput_samples_per_second": report.goodput_samples_per_second,
            "recovery_seconds": report.total_recovery_seconds,
            "lost_seconds": report.lost_seconds,
        }
    return _record(task, simulation, feasible=feasible,
                   peaks=simulation.peak_memory_per_gpu,
                   trace=simulation.trace, plan=plan, resilience=resilience)


def _execute_zero(task: SimTask) -> Dict:
    from repro.baselines.zero import run_zero

    variant = task.system.split("-", 1)[1]
    result = run_zero(
        task.job.model,
        task.job.server,
        variant,
        task.job.samples_per_minibatch,
    )
    return _record(
        task, result, feasible=result.ok,
        peaks=[result.per_gpu_memory] * task.job.server.n_gpus,
        zero={
            "variant": result.variant,
            "reason": result.reason,
            "compute_time": result.compute_time,
            "comm_exposed": result.comm_exposed,
            "offload_exposed": result.offload_exposed,
            "host_bytes": result.host_bytes,
        },
    )


def _execute_hybrid(task: SimTask) -> Dict:
    from repro.parallel.hybrid import replica_oom, run_hybrid

    result = run_hybrid(task.job, task.hybrid, system=task.system)
    replicas = [chains[0] for chains in result.chains]      # tp == 1
    return _record(
        task, result,
        feasible=all(
            replica.planner_report.feasible for replica in replicas),
        peaks=result.peak_memory_per_gpu(),
        trace=replicas[0].simulation.trace,
        oom=replica_oom(result),
        hybrid={
            "dp": result.dp,
            "placement_mode": result.placement.mode,
            "groups": [list(chains[0]) for chains in result.placement.chains],
            "bucket_bytes": task.hybrid.bucket_bytes,
            "collective_mode": task.hybrid.collective_mode,
            "overlap": task.hybrid.overlap,
            "replica_minibatch_time": result.chain_minibatch_time,
            "exposed_allreduce": result.exposed_allreduce,
            "stage_allreduce": _stage_allreduce(result.stage_allreduce),
            "replica_trace_digests": [
                trace_digest(replica.simulation.trace)
                if replica.ok else None
                for replica in replicas
            ],
        },
    )


def _execute_cluster(task: SimTask) -> Dict:
    from repro.parallel.cluster import run_cluster

    result = run_cluster(task.job, task.cluster, task.cluster_config,
                         system=task.system)
    config = task.cluster_config
    return _record(
        task, result,
        feasible=all(
            chain.planner_report.feasible
            for replica in result.chains for chain in replica
        ),
        peaks=result.peak_memory_per_gpu(),
        trace=result.chains[0][0].simulation.trace,
        cluster={
            "n_servers": result.cluster.n_servers,
            "fabric": result.cluster.fabric.link_type.value,
            "tp": result.tp,
            "dp": result.dp,
            "pp": result.pp,
            "sequence_parallel": config.sequence_parallel,
            "placement_mode": result.placement.mode,
            "chains": [
                [list(chain) for chain in replica]
                for replica in result.placement.chains
            ],
            "bucket_bytes": config.bucket_bytes,
            "collective_mode": config.collective_mode,
            "overlap": config.overlap,
            "chain_minibatch_time": result.chain_minibatch_time,
            "exposed_tp_sync": result.exposed_tp_sync,
            "exposed_allreduce": result.exposed_allreduce,
            "tp_sync": [dataclasses.asdict(sync) for sync in result.tp_sync],
            "stage_allreduce": _stage_allreduce(result.stage_allreduce),
            "chain_trace_digests": [
                [
                    trace_digest(chain.simulation.trace) if chain.ok else None
                    for chain in replica
                ]
                for replica in result.chains
            ],
        },
    )


# Winner fields an autoplan record reports when the winning shape ran.
_WINNER_FIELDS = ("ok", "oom", "tflops", "samples_per_second",
                  "minibatch_time", "makespan", "peak_bytes_per_gpu",
                  "feasible", "trace_digest", "n_trace_events")


def _execute_autoplan(task: SimTask) -> Dict:
    """Run a shape search and record the winner plus the full ranking.

    Top-level metrics mirror the winning shape's cluster record (so
    CSV export and sweep tables read autoplan cells like any other);
    a winner that did not fit lends only its ``oom`` and ``feasible``.
    The ``autoplan`` sub-dict carries the ranked report, rejection
    reasons and pruning counters.
    """
    from repro.autoplan import autoplan as run_autoplan

    report = run_autoplan(task.job, task.cluster, config=task.autoplan,
                          system=task.system)
    record = _record(task, _NO_RESULT, feasible=None,
                     autoplan=report.to_json(task.job))
    if report.best is not None:
        winner = report.best.record
        shown = _WINNER_FIELDS if winner["ok"] else ("oom", "feasible")
        record.update((name, winner[name]) for name in shown)
    return record


def _execute_inference(task: SimTask) -> Dict:
    from repro.inference.run import run_serving

    outcome = run_serving(task.job.model, task.job.server, task.inference)
    simulation = outcome.simulation
    return _record(task, simulation, feasible=simulation.ok,
                   peaks=simulation.peak_memory_per_gpu,
                   trace=simulation.trace,
                   inference=outcome.metrics.to_json())


# -- the kind table ----------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """One task kind: its fields, systems, cache keys and executor."""

    name: str
    summary: str                     # for error messages
    requires: Tuple[str, ...]        # optional fields that must be set
    allows: Tuple[str, ...]          # optional fields that may be set
    systems: Tuple[str, ...]
    keys: Tuple[str, ...]            # added to the cache-key payload
    execute: Callable[[SimTask], Dict]


_KINDS = (
    _Kind("train", "a memory-saving training run", (),
          ("config", "faults", "plan"), SYSTEMS, (), _execute_train),
    _Kind("zero", "an analytic ZeRO baseline", (), (), ZERO_SYSTEMS, (),
          _execute_zero),
    _Kind("hybrid", "DP x PP over one server", ("hybrid",), (), SYSTEMS,
          ("hybrid",), _execute_hybrid),
    _Kind("cluster", "one given TP x DP x PP shape over a Cluster",
          ("cluster", "cluster_config"), (), SYSTEMS,
          ("cluster", "cluster_config"), _execute_cluster),
    # Autoplan keys keep the (null) cluster_config entry every task
    # with a cluster has always hashed.
    _Kind("autoplan", "a shape search over a Cluster",
          ("cluster", "autoplan"), (), SYSTEMS,
          ("cluster", "cluster_config", "autoplan"), _execute_autoplan),
    _Kind("inference", "an LLM serving episode", ("inference",), (),
          SYSTEMS, ("inference",), _execute_inference),
)


def _kind_of(task: SimTask) -> _Kind:
    """The row whose required fields ``task`` sets most of.

    Ties go to the row that accepts ``task.system``, then to table
    order; the chosen row then checks the task in full.
    """
    if not any(task.system in kind.systems for kind in _KINDS):
        known = sorted({system for kind in _KINDS for system in kind.systems})
        raise ConfigurationError(
            f"unknown sweep system {task.system!r}; options: {known}")
    return max(_KINDS, key=lambda kind: (
        sum(getattr(task, name) is not None for name in kind.requires),
        task.system in kind.systems,
    ))


# -- reporting ---------------------------------------------------------------


def peak_gib(record: Dict) -> float:
    """Largest per-GPU peak of a record, in GiB (0.0 for OOM cells)."""
    peaks = record.get("peak_bytes_per_gpu") or []
    return max(peaks) / 2**30 if peaks else 0.0

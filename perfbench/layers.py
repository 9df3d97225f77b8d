"""Wrappers on each layer's public functions, and the per-layer metrics.

The wrappers are installed from outside the program, in the op's own
interpreter, only for traced ops.  Module attributes are patched, and
so is every ``from ... import`` binding of the same object in an
already-imported ``repro`` module (the planner, for one, reaches the
mapping search that way).  Class methods are patched on the class.

Hot helpers (``assign_spare_memory`` runs 40,320 times per DGX-1
search) are deliberately not wrapped: their counts come from return
values instead, which keeps the tracing overhead small.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

from spans import Recorder, by_name

# (module, attribute path, span name, on_return) — on_return gets
# (args, kwargs, result) and returns counts to attach to the span.
Target = Tuple[str, str, str, Optional[Callable]]


def _mappings(args, kwargs, result):
    return {"mappings": result.mappings_evaluated}


def _planner(args, kwargs, result):
    report = result[1]
    return {"emulations": report.n_emulations,
            "accepted": report.accepted_upgrades}


def _tape_size(args, kwargs, result):
    return {"instructions": args[0].tape.n}


def _one_run(args, kwargs, result):
    return {"runs": 1}


def _iterations(args, kwargs, result):
    return {"iterations": result.n_iterations}


def _strict(args, kwargs, result):
    strict = kwargs.get("strict", args[2] if len(args) > 2 else True)
    return {"strict": int(bool(strict))}


TARGETS: List[Target] = [
    ("repro.core.profiler", "Profiler.run", "core.profiler", None),
    ("repro.core.device_mapping", "search_device_mapping",
     "core.device_mapping", _mappings),
    ("repro.core.planner", "Planner.build", "core.planner", _planner),
    ("repro.core.emulator", "Emulator.run", "core.emulator", None),
    ("repro.sim.lowering", "Lowering.__init__", "sim.lowering.skeleton", None),
    ("repro.sim.lowering", "Lowering.lower", "sim.lowering", None),
    ("repro.sim.incremental", "IncrementalSimulator.run",
     "sim.incremental", None),
    ("repro.sim.incremental", "diff_programs", "sim.incremental.diff", None),
    ("repro.sim.fastpath", "FastInterpreter.__init__", "sim.fastpath.compile",
     _tape_size),
    ("repro.sim.fastpath", "FastInterpreter.run", "sim.fastpath", _one_run),
    ("repro.sim.interpreter", "Interpreter.run", "sim.reference", _one_run),
    ("repro.sim.executor", "simulate", "sim.executor", _strict),
    ("repro.inference.scheduler", "schedule_serving", "inference.scheduler",
     _iterations),
    ("repro.inference.lowering", "build_serving_program",
     "inference.lowering", None),
    ("repro.inference.metrics", "compute_metrics", "inference.metrics", None),
]

# Per-layer metrics, in report order, with their units.  Every
# workload reports every one; a layer the workload never reaches
# reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.device_mapping.ms", "ms"),
    ("core.device_mapping.mappings", "count"),
    ("core.profiler.ms", "ms"),
    ("core.planner.self_ms", "ms"),
    ("core.planner.emulations", "count"),
    ("core.planner.accepted_ratio", "ratio"),
    ("core.emulator.ms", "ms"),
    ("sim.fastpath.ms", "ms"),
    ("sim.fastpath.instructions", "count"),
    ("sim.fastpath.fast_share", "ratio"),
    ("sim.lowering.ms", "ms"),
    ("sim.lowering.calls", "count"),
    ("sim.lowering.skeleton_builds", "count"),
    ("sim.incremental.ms", "ms"),
    ("sim.incremental.diff_ms", "ms"),
    ("sim.incremental.resumes", "count"),
    ("sim.incremental.memo_hits", "count"),
    ("sim.executor.ms", "ms"),
    ("inference.scheduler.ms", "ms"),
    ("inference.scheduler.iterations", "count"),
    ("inference.lowering.self_ms", "ms"),
    ("inference.metrics.ms", "ms"),
    ("inference.kvcache.swapped_bytes", "bytes"),
    ("inference.kvcache.swapped_requests", "count"),
    ("inference.kvcache.preemptions", "count"),
    ("sim.decode_stall_ms", "ms"),
    ("sim.samples_per_s", "1/s"),
    ("sim.tokens_per_s", "1/s"),
    ("sim.ttft_p50_ms", "ms"),
    ("sim.ttft_p95_ms", "ms"),
    ("sim.tpot_p50_ms", "ms"),
    ("core.profiler.demand_error_pct", "%"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.executed", "count"),
    ("serve.cached", "count"),
    ("serve.coalesced", "count"),
    ("serve.failed", "count"),
    ("serve.backend.failures", "count"),
    ("serve.backend.pool_generations", "count"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.entries", "count"),
    ("runtime.cache.bytes", "bytes"),
    ("host.speed_factor", "ratio"),
    ("host.latency_raw_p50_ms", "ms"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Instrumentation:
    """Installs the wrappers and turns recorded spans into metrics."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.incremental_sims: list = []

    def install(self) -> None:
        for module_name, path, name, on_return in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            traced = self.recorder.wrap(name, original, on_return)
            setattr(owner, attr, traced)
            if isinstance(owner, type):
                continue
            # Rebind ``from module import fn`` copies.
            for mod_name, module in list(sys.modules.items()):
                if (mod_name.startswith("repro.") and module is not owner
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, traced)
        cls, _ = _resolve("repro.sim.incremental", "IncrementalSimulator.run")
        init = cls.__init__
        sims = self.incremental_sims

        def tracking_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sims.append(sim)

        cls.__init__ = tracking_init

    def layer_metrics(self, skeleton_builds: int) -> Dict[str, float]:
        rows = by_name(self.recorder.spans)

        def row(name: str) -> Dict[str, float]:
            return rows.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})

        planner = row("core.planner")
        emulations = planner.get("emulations", 0)
        fast_runs = row("sim.fastpath").get("runs", 0)
        ref_runs = row("sim.reference").get("runs", 0)
        return {
            "core.device_mapping.ms": row("core.device_mapping")["ms"],
            "core.device_mapping.mappings":
                row("core.device_mapping").get("mappings", 0),
            "core.profiler.ms": row("core.profiler")["ms"],
            "core.planner.self_ms": planner["self_ms"],
            "core.planner.emulations": emulations,
            "core.planner.accepted_ratio":
                planner.get("accepted", 0) / emulations if emulations else 0.0,
            "core.emulator.ms": row("core.emulator")["ms"],
            "sim.fastpath.ms":
                row("sim.fastpath")["ms"] + row("sim.fastpath.compile")["ms"],
            "sim.fastpath.instructions":
                row("sim.fastpath.compile").get("instructions", 0),
            "sim.fastpath.fast_share":
                fast_runs / (fast_runs + ref_runs) if fast_runs + ref_runs else 0.0,
            "sim.lowering.ms":
                row("sim.lowering")["ms"] + row("sim.lowering.skeleton")["ms"],
            "sim.lowering.calls": row("sim.lowering")["calls"],
            "sim.lowering.skeleton_builds": skeleton_builds,
            "sim.incremental.ms": row("sim.incremental")["ms"],
            "sim.incremental.diff_ms": row("sim.incremental.diff")["ms"],
            "sim.incremental.resumes":
                sum(s.n_resumed for s in self.incremental_sims),
            "sim.incremental.memo_hits":
                sum(s.n_memoized for s in self.incremental_sims),
            # The strict runs only, not the profiler's non-strict one.
            "sim.executor.ms": 1e3 * sum(
                s.duration for s in self.recorder.spans
                if s.name == "sim.executor" and s.counts["strict"]),
            "inference.scheduler.ms": row("inference.scheduler")["ms"],
            "inference.scheduler.iterations":
                row("inference.scheduler").get("iterations", 0),
            "inference.lowering.self_ms": row("inference.lowering")["self_ms"],
            "inference.metrics.ms": row("inference.metrics")["ms"],
        }

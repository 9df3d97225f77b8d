"""Serving sweeps: latency/throughput across KV overflow policies.

For each KV-swap mode on a grid (``d2d`` striping to spare GPUs,
``pcie`` host swap, ``none`` preempt+recompute), run the same
serving workload through the sweep runtime (each cell a
content-addressed :class:`~repro.runtime.task.SimTask` with an
``InferenceConfig``), and record TTFT/TPOT percentiles, tokens/sec,
spill volume, and the decode stall the overflow path exposed.  One
row per policy; :data:`COLUMNS` exports them through
:func:`repro.analysis.reporting.to_csv`.  The task grid is the
``serving-dgx1`` preset's (:func:`repro.runtime.presets.kv_grid_tasks`).

The workload is identical across cells by construction — the
serving scheduler never consults the transport — so spill volume is
equal between ``d2d`` and ``pcie`` and the stall column isolates the
paper's bandwidth argument on the serving side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.inference.workload import KV_MODES, InferenceConfig
from repro.job import TrainingJob
from repro.runtime.presets import kv_grid_tasks


@dataclass(frozen=True)
class ServingCell:
    """One KV-policy measurement of a serving sweep."""

    kv_swap: str
    ok: bool
    tokens_per_second: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    makespan: float
    decode_stall_seconds: float
    swapped_bytes: int
    preemptions: int


COLUMNS = {"kv_swap": "", "ok": "d", "tokens_per_second": ".3f",
           "ttft_p50": ".6f", "ttft_p95": ".6f", "ttft_p99": ".6f",
           "tpot_p50": ".6f", "tpot_p95": ".6f", "tpot_p99": ".6f",
           "makespan": ".6f", "decode_stall_seconds": ".6f",
           "swapped_bytes": "", "preemptions": ""}


def serving_sweep(
    job: TrainingJob,
    config: InferenceConfig,
    kv_modes: Sequence[str] = KV_MODES,
    system: str = "mpress",
    runtime: Optional["SweepRuntime"] = None,
) -> List[ServingCell]:
    """Latency/throughput per KV overflow policy for one workload.

    Cells run through ``runtime`` (default serial/uncached) as
    independent inference tasks, so a warmed cache resolves the whole
    comparison without a single simulation.
    """
    from repro.runtime.pool import run_tasks

    tasks = kv_grid_tasks(
        f"serving-sweep/{job.server.name}/{job.model.config.name}",
        job, config, kv_modes, system)
    records = run_tasks(tasks, runtime).records()

    cells: List[ServingCell] = []
    for mode, record in zip(kv_modes, records):
        ok = record is not None and bool(record["ok"])
        serving = record.get("inference") if record else None
        if not ok or not serving:
            cells.append(ServingCell(
                kv_swap=mode, ok=False, tokens_per_second=0.0,
                ttft_p50=0.0, ttft_p95=0.0, ttft_p99=0.0,
                tpot_p50=0.0, tpot_p95=0.0, tpot_p99=0.0,
                makespan=0.0, decode_stall_seconds=0.0,
                swapped_bytes=0, preemptions=0,
            ))
            continue
        cells.append(ServingCell(
            kv_swap=mode,
            ok=True,
            tokens_per_second=serving["tokens_per_second"],
            ttft_p50=serving["ttft_p50"],
            ttft_p95=serving["ttft_p95"],
            ttft_p99=serving["ttft_p99"],
            tpot_p50=serving["tpot_p50"],
            tpot_p95=serving["tpot_p95"],
            tpot_p99=serving["tpot_p99"],
            makespan=serving["makespan"],
            decode_stall_seconds=serving["decode_stall_seconds"],
            swapped_bytes=int(serving["swapped_bytes"]),
            preemptions=int(serving["preemptions"]),
        ))
    return cells

"""DP-scaling sweeps: hybrid throughput as replicas are added.

For each data-parallel degree on a grid, run the hybrid DP x PP job
through the sweep runtime (each cell a content-addressed
:class:`~repro.runtime.task.SimTask` with a ``HybridConfig``), and
record throughput, the exposed all-reduce tail, and the scaling
efficiency against the ``dp=1`` pipeline.  One row per replica
count; :data:`COLUMNS` exports them through
:func:`repro.analysis.reporting.to_csv`.  The task grid is the
``hybrid-dgx1`` preset's (:func:`repro.runtime.presets.dp_grid_tasks`).

The job spec is per replica (weak scaling): perfect scaling doubles
samples/s with ``dp``; anything lost went to gradient
synchronisation or to the shorter pipelines' worse bubble ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.job import TrainingJob
from repro.parallel.sync import DEFAULT_BUCKET_BYTES
from repro.runtime.presets import DP_GRID, DP_SYSTEM, dp_grid_tasks
from repro.runtime.task import SimTask


@dataclass(frozen=True)
class DPScalingCell:
    """One replica-count measurement of a hybrid scaling sweep."""

    dp: int
    ok: bool
    samples_per_second: float
    tflops: float
    minibatch_time: float
    exposed_allreduce: float
    peak_gib: float
    scaling_efficiency: float   # samples/s over dp x the dp=1 rate


COLUMNS = {"dp": "", "ok": "d", "samples_per_second": ".3f",
           "tflops": ".3f", "minibatch_time": ".6f",
           "exposed_allreduce": ".6f", "peak_gib": ".3f",
           "scaling_efficiency": ".4f"}


def dp_scaling_tasks(
    job: TrainingJob,
    dp_grid: Sequence[int] = DP_GRID,
    system: str = DP_SYSTEM,
    algorithm: str = "auto",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> List[SimTask]:
    """The sweep's task list (one content-addressed cell per degree)."""
    return dp_grid_tasks(f"dp-scaling/{system}/{job.server.name}", job,
                         dp_grid, system, algorithm=algorithm,
                         bucket_bytes=bucket_bytes)


def dp_scaling_sweep(
    job: TrainingJob,
    dp_grid: Sequence[int] = DP_GRID,
    system: str = DP_SYSTEM,
    algorithm: str = "auto",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    runtime: Optional["SweepRuntime"] = None,
) -> List[DPScalingCell]:
    """Throughput vs. replica count for one (per-replica) job spec.

    Every degree must divide the server's GPU count and leave at
    least two pipeline stages per replica.  Cells run through
    ``runtime`` (default serial/uncached) as independent hybrid
    tasks, so a warmed cache resolves the whole curve without a
    single simulation.
    """
    from repro.runtime.pool import run_tasks
    from repro.runtime.task import peak_gib

    tasks = dp_scaling_tasks(job, dp_grid, system, algorithm, bucket_bytes)
    records = run_tasks(tasks, runtime).records()

    base_rate = 0.0
    for dp, record in zip(dp_grid, records):
        if dp == 1 and record is not None and record["ok"]:
            base_rate = record["samples_per_second"]
    cells: List[DPScalingCell] = []
    for dp, record in zip(dp_grid, records):
        ok = record is not None and bool(record["ok"])
        hybrid = record.get("hybrid") if record else None
        rate = record["samples_per_second"] if ok else 0.0
        efficiency = rate / (dp * base_rate) if ok and base_rate > 0 else 0.0
        cells.append(DPScalingCell(
            dp=dp,
            ok=ok,
            samples_per_second=rate,
            tflops=record["tflops"] if ok else 0.0,
            minibatch_time=record["minibatch_time"] if ok else 0.0,
            exposed_allreduce=(
                hybrid["exposed_allreduce"] if ok and hybrid else 0.0
            ),
            peak_gib=peak_gib(record) if ok else 0.0,
            scaling_efficiency=efficiency,
        ))
    return cells

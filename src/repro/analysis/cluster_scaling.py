"""Cluster-scaling sweeps: throughput across TP x DP x PP shapes.

For each (tp, dp, pp) shape on a grid, run the 3D-parallel job over a
multi-server cluster through the sweep runtime (each cell a
content-addressed :class:`~repro.runtime.task.SimTask` with a
``ClusterConfig``), and record throughput, both exposed
synchronisation tails (TP collectives and DP gradient buckets), and
per-GPU peak memory.  One row per shape; :data:`COLUMNS` exports
them through :func:`repro.analysis.reporting.to_csv`.  The task grid
is the ``cluster-2xdgx1`` preset's
(:func:`repro.runtime.presets.shape_grid_tasks`).

The job spec is per replica (weak scaling), so samples/s scales with
``dp`` at fixed shape quality; what the sweep surfaces is the *shape*
trade-off — deeper pipelines lower per-GPU memory but worsen the
bubble, wider TP buys memory at the price of per-microbatch
all-reduces, and DP across the fabric pays the NIC ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.job import TrainingJob
from repro.parallel.sync import DEFAULT_BUCKET_BYTES
from repro.runtime.presets import CLUSTER_SHAPES, shape_grid_tasks
from repro.runtime.task import SimTask


@dataclass(frozen=True)
class ClusterScalingCell:
    """One shape measurement of a cluster scaling sweep."""

    tp: int
    dp: int
    pp: int
    ok: bool
    samples_per_second: float
    tflops: float
    minibatch_time: float
    exposed_tp_sync: float
    exposed_allreduce: float
    peak_gib: float
    placement_mode: str


COLUMNS = {"tp": "", "dp": "", "pp": "", "ok": "d",
           "samples_per_second": ".3f", "tflops": ".3f",
           "minibatch_time": ".6f", "exposed_tp_sync": ".6f",
           "exposed_allreduce": ".6f", "peak_gib": ".3f",
           "placement_mode": ""}


def cluster_scaling_tasks(
    job: TrainingJob,
    cluster: Cluster,
    shapes: Sequence[Tuple[int, int, int]] = CLUSTER_SHAPES,
    system: str = "mpress",
    sequence_parallel: bool = False,
    algorithm: str = "auto",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> List[SimTask]:
    """The sweep's task list (one content-addressed cell per shape)."""
    return shape_grid_tasks(f"cluster-scaling/{system}/{cluster.name}", job,
                            cluster, shapes, system, algorithm=algorithm,
                            sequence_parallel=sequence_parallel,
                            bucket_bytes=bucket_bytes)


def cluster_scaling_sweep(
    job: TrainingJob,
    cluster: Cluster,
    shapes: Sequence[Tuple[int, int, int]] = CLUSTER_SHAPES,
    system: str = "mpress",
    sequence_parallel: bool = False,
    algorithm: str = "auto",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    runtime: Optional["SweepRuntime"] = None,
) -> List[ClusterScalingCell]:
    """Throughput vs. parallelism shape on one cluster.

    Cells run through ``runtime`` (default serial/uncached) as
    independent cluster tasks, so a warmed cache resolves the whole
    grid without a single simulation.
    """
    from repro.runtime.pool import run_tasks
    from repro.runtime.task import peak_gib

    tasks = cluster_scaling_tasks(job, cluster, shapes, system,
                                  sequence_parallel, algorithm, bucket_bytes)
    records = run_tasks(tasks, runtime).records()

    cells: List[ClusterScalingCell] = []
    for (tp, dp, pp), record in zip(shapes, records):
        ok = record is not None and bool(record["ok"])
        info = record.get("cluster") if record else None
        cells.append(ClusterScalingCell(
            tp=tp,
            dp=dp,
            pp=pp,
            ok=ok,
            samples_per_second=record["samples_per_second"] if ok else 0.0,
            tflops=record["tflops"] if ok else 0.0,
            minibatch_time=record["minibatch_time"] if ok else 0.0,
            exposed_tp_sync=info["exposed_tp_sync"] if ok and info else 0.0,
            exposed_allreduce=(
                info["exposed_allreduce"] if ok and info else 0.0
            ),
            peak_gib=peak_gib(record) if ok else 0.0,
            placement_mode=info["placement_mode"] if ok and info else "",
        ))
    return cells


def full_shape_grid(
    job: TrainingJob,
    cluster: Cluster,
    power_of_two: bool = True,
) -> List[Tuple[int, int, int]]:
    """Every simulable (tp, dp, pp) shape on the cluster.

    The exhaustive counterpart of :func:`repro.autoplan.autoplan`'s
    pruned frontier: the same layer-1 candidate generator enumerates
    and budget-checks the grid, so sweeping these shapes measures
    exactly the search space the autoplanner prices — the ground
    truth the ``autoplan-smoke`` CI job compares against.
    """
    from repro.autoplan import generate_candidates

    candidates, _ = generate_candidates(job, cluster,
                                        power_of_two=power_of_two)
    return [candidate.shape for candidate in candidates]


def grid_winner(
    cells: Sequence[ClusterScalingCell],
) -> Optional[ClusterScalingCell]:
    """The best fully simulated cell of a sweep.

    Highest measured samples/s among the ``ok`` cells; exact ties
    resolve on the ascending shape tuple, the same canonical order
    the autoplanner ranks with, so winner comparisons are stable.
    """
    ok_cells = [cell for cell in cells if cell.ok]
    if not ok_cells:
        return None
    return min(ok_cells, key=lambda cell: (
        -cell.samples_per_second, (cell.tp, cell.dp, cell.pp)))

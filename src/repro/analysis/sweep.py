"""Experiment sweeps: run grids of (model, system) cells and export.

A driver that collects one row per (model, system) cell — what the
figure benches do by hand — plus the column tables that export a
sweep (:data:`COLUMNS`) and a runtime record list
(:data:`RECORD_COLUMNS`) through
:func:`repro.analysis.reporting.to_csv`.  Cells execute through
:mod:`repro.runtime`, so a sweep inherits process-pool parallelism
and content-addressed caching; pass a configured
:class:`~repro.runtime.SweepRuntime` to turn those on.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import to_csv
from repro.job import TrainingJob


@dataclass(frozen=True)
class SweepCell:
    """One (model, system) measurement."""

    model: str
    system: str
    ok: bool
    tflops: float
    samples_per_second: float
    minibatch_time: float
    peak_gib: float

    @property
    def cell(self) -> str:
        return f"{self.tflops:.0f}" if self.ok else "OOM"


COLUMNS = {"model": "", "system": "", "ok": "d", "tflops": ".3f",
           "samples_per_second": ".3f", "minibatch_time": ".6f",
           "peak_gib": ".3f"}

# The same table for runtime records, keyed by task label.
RECORD_COLUMNS = {"label": "", **{name: spec for name, spec in COLUMNS.items()
                                  if name != "model"}}


def sweep_tasks(
    jobs: Dict[str, TrainingJob], systems: Sequence[str]
) -> List["SimTask"]:
    """Lower a (model, system) grid into runtime tasks."""
    from repro.runtime.task import SimTask

    return [
        SimTask(label=f"{model_name}/{system}", job=job, system=system)
        for model_name, job in jobs.items()
        for system in systems
    ]


def cells_from_records(
    jobs: Dict[str, TrainingJob],
    systems: Sequence[str],
    records: Sequence[Optional[Dict]],
) -> List[SweepCell]:
    """Rebuild sweep cells from runtime records, in grid order."""
    from repro.runtime.task import peak_gib

    cells: List[SweepCell] = []
    grid = [(m, s) for m in jobs for s in systems]
    for (model_name, system), record in zip(grid, records):
        if record is None:
            # The runtime exhausted its retries on this cell; report
            # it like an OOM rather than dropping the row.
            cells.append(SweepCell(model=model_name, system=system, ok=False,
                                   tflops=0.0, samples_per_second=0.0,
                                   minibatch_time=0.0, peak_gib=0.0))
            continue
        cells.append(
            SweepCell(
                model=model_name,
                system=system,
                ok=bool(record["ok"]),
                tflops=record["tflops"],
                samples_per_second=record["samples_per_second"],
                minibatch_time=record["minibatch_time"],
                peak_gib=peak_gib(record),
            )
        )
    return cells


def run_sweep(
    jobs: Dict[str, TrainingJob],
    systems: Sequence[str],
    runtime: Optional["SweepRuntime"] = None,
) -> List[SweepCell]:
    """Run every (job, system) cell of the grid.

    Cells route through :mod:`repro.runtime` (serial, uncached by
    default); pass ``runtime`` for parallelism and caching.
    """
    from repro.runtime.pool import run_tasks

    report = run_tasks(sweep_tasks(jobs, systems), runtime)
    return cells_from_records(jobs, systems, report.records())


def records_to_csv(records: Sequence[Optional[Dict]]) -> str:
    """CSV text of runtime records, one row per task that finished.

    Two runs of the same grid produce byte-identical files whenever
    their records match — the property the cache-roundtrip CI job
    asserts on ``repro sweep --csv``.
    """
    from repro.runtime.task import peak_gib

    return to_csv([SimpleNamespace(**record, peak_gib=peak_gib(record))
                   for record in records if record is not None],
                  RECORD_COLUMNS)


def pivot(cells: Sequence[SweepCell]) -> Dict[str, Dict[str, SweepCell]]:
    """model -> system -> cell, for table/figure rendering."""
    table: Dict[str, Dict[str, SweepCell]] = {}
    for cell in cells:
        table.setdefault(cell.model, {})[cell.system] = cell
    return table

"""Resilience sweeps: goodput as a function of failure pressure.

For each mean-time-between-failures value on a grid, generate a
seeded fault campaign (Poisson arrivals over the fault-free run's
makespan), train through it, and record the resulting goodput next
to the fault-free throughput.  One row per (MTBF, trial) cell;
:data:`COLUMNS` exports them through
:func:`repro.analysis.reporting.to_csv`.

Both the fault-free baseline and every campaign replay execute
through :mod:`repro.runtime`: campaigns are independent plan replays,
so they parallelize across workers and cache content-addressed (the
cached baseline record carries the plan payload, so a fully cached
sweep performs zero simulations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.faults.spec import random_schedule
from repro.job import TrainingJob


@dataclass(frozen=True)
class ResilienceCell:
    """One (MTBF, trial) measurement of a fault campaign."""

    mtbf: float
    trial: int
    seed: int
    n_faults: int
    n_failures: int
    ok: bool
    fault_free_samples_per_second: float
    goodput_samples_per_second: float
    recovery_seconds: float
    lost_seconds: float
    makespan: float

    @property
    def goodput_ratio(self) -> float:
        """Goodput as a fraction of fault-free throughput."""
        if self.fault_free_samples_per_second <= 0:
            return 0.0
        return self.goodput_samples_per_second / self.fault_free_samples_per_second


COLUMNS = {"mtbf": ".3f", "trial": "", "seed": "", "n_faults": "",
           "n_failures": "", "ok": "d",
           "fault_free_samples_per_second": ".3f",
           "goodput_samples_per_second": ".3f", "goodput_ratio": ".4f",
           "recovery_seconds": ".6f", "lost_seconds": ".6f",
           "makespan": ".6f"}


def resilience_sweep(
    job: TrainingJob,
    system: str = "mpress",
    mtbf_grid: Sequence[float] = (2.0, 1.0, 0.5),
    trials: int = 1,
    seed: int = 0,
    restart_latency: Optional[float] = None,
    runtime: Optional["SweepRuntime"] = None,
) -> List[ResilienceCell]:
    """Goodput vs. MTBF grid for one training job.

    ``mtbf_grid`` values are multiples of the fault-free makespan, so
    ``1.0`` means one expected fault per run regardless of model
    scale.  Each (MTBF, trial) cell draws its campaign from
    ``seed + cell index`` — the whole sweep is reproducible from one
    seed.  The plan is built once, fault-free; every campaign replays
    it, so cells differ only in the injected faults.  Campaigns run
    through ``runtime`` (default serial/uncached) as independent plan
    replays.
    """
    from repro.core.serialization import plan_from_dict
    from repro.runtime.pool import run_tasks
    from repro.runtime.task import SimTask

    baseline_task = SimTask(
        label=f"resilience/{system}/baseline", job=job, system=system
    )
    baseline = run_tasks([baseline_task], runtime).records()[0]
    if baseline is None or not baseline["ok"]:
        raise RuntimeError(f"fault-free {system} run is OOM; nothing to sweep")
    horizon = baseline["makespan"]
    fault_free = baseline["samples_per_second"]
    plan = plan_from_dict(baseline["plan"])

    grid = [(mtbf, trial) for mtbf in mtbf_grid for trial in range(trials)]
    tasks: List[SimTask] = []
    schedules = []
    for index, (mtbf, trial) in enumerate(grid):
        cell_seed = seed + index
        schedule = random_schedule(
            seed=cell_seed,
            n_devices=job.server.n_gpus,
            horizon=horizon,
            mtbf=mtbf * horizon,
            restart_latency=restart_latency,
        )
        schedules.append((cell_seed, schedule))
        tasks.append(SimTask(
            label=f"resilience/{system}/mtbf={mtbf:g}/trial={trial}",
            job=job,
            system=system,
            plan=plan,
            faults=schedule,
        ))

    cells: List[ResilienceCell] = []
    records = run_tasks(tasks, runtime).records()
    for (mtbf, trial), (cell_seed, schedule), record in zip(
        grid, schedules, records
    ):
        ok = record is not None and bool(record["ok"])
        report = record.get("resilience") if record else None
        cells.append(
            ResilienceCell(
                mtbf=mtbf,
                trial=trial,
                seed=cell_seed,
                n_faults=len(schedule),
                n_failures=report["n_failures"] if report else 0,
                ok=ok,
                fault_free_samples_per_second=fault_free,
                # A campaign that drew no faults runs at full
                # throughput — its goodput is the plain rate.
                goodput_samples_per_second=(
                    0.0 if not ok
                    else report["goodput_samples_per_second"] if report
                    else record["samples_per_second"]
                ),
                recovery_seconds=report["recovery_seconds"] if report else 0.0,
                lost_seconds=report["lost_seconds"] if report else 0.0,
                makespan=record["makespan"] if ok else 0.0,
            )
        )
    return cells


def pivot(cells: Sequence[ResilienceCell]) -> Dict[float, List[ResilienceCell]]:
    """mtbf -> its trial cells, for goodput-vs-MTBF curves."""
    table: Dict[float, List[ResilienceCell]] = {}
    for cell in cells:
        table.setdefault(cell.mtbf, []).append(cell)
    return table

"""Sweep driver and CSV export tests."""

import csv
import io

from repro.analysis.reporting import save_csv, to_csv
from repro.analysis.sweep import COLUMNS, pivot, run_sweep

from tests.conftest import tiny_job


def _cells():
    jobs = {"tiny": tiny_job()}
    return run_sweep(jobs, ["none", "mpress"])


def test_sweep_covers_the_grid():
    cells = _cells()
    assert len(cells) == 2
    assert {c.system for c in cells} == {"none", "mpress"}
    assert all(c.ok for c in cells)
    assert all(c.tflops > 0 for c in cells)


def test_cell_rendering():
    cells = _cells()
    assert all(c.cell != "OOM" for c in cells)


def test_csv_round_trip():
    cells = _cells()
    text = to_csv(cells, COLUMNS)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(cells)
    assert rows[0]["model"] == "tiny"
    assert float(rows[0]["tflops"]) > 0


def test_save_csv(tmp_path):
    path = str(tmp_path / "sweep.csv")
    save_csv(_cells(), COLUMNS, path)
    with open(path) as handle:
        assert handle.readline().startswith("model,system")


def test_pivot_shape():
    table = pivot(_cells())
    assert set(table) == {"tiny"}
    assert set(table["tiny"]) == {"none", "mpress"}


def test_oom_cells_recorded():
    from repro.units import MiB
    from tests.conftest import small_server, tiny_model

    job = tiny_job(server=small_server(gpu_memory=4 * MiB), model=tiny_model())
    cells = run_sweep({"doomed": job}, ["none"])
    assert not cells[0].ok
    assert cells[0].cell == "OOM"
    assert cells[0].peak_gib == 0.0

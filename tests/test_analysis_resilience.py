"""Resilience sweep tests (goodput vs. failure pressure)."""

import pytest

from repro.analysis.reporting import to_csv
from repro.analysis.resilience import COLUMNS, pivot, resilience_sweep

from tests.conftest import tiny_job


@pytest.fixture(scope="module")
def cells():
    return resilience_sweep(
        tiny_job(), system="none", mtbf_grid=(2.0, 0.5), trials=2, seed=7
    )


def test_grid_shape(cells):
    assert len(cells) == 4
    assert sorted({cell.mtbf for cell in cells}) == [0.5, 2.0]
    assert all(cell.ok for cell in cells)


def test_cell_seeds_are_distinct_and_derived(cells):
    assert [cell.seed for cell in cells] == [7, 8, 9, 10]


def test_goodput_never_beats_fault_free(cells):
    for cell in cells:
        assert cell.goodput_ratio <= 1.0 + 1e-9
        if cell.n_failures:
            assert cell.recovery_seconds > 0.0


def test_sweep_is_reproducible(cells):
    again = resilience_sweep(
        tiny_job(), system="none", mtbf_grid=(2.0, 0.5), trials=2, seed=7
    )
    assert again == cells


def test_csv_round_trip(cells):
    text = to_csv(cells, COLUMNS)
    lines = text.strip().splitlines()
    assert lines[0].startswith("mtbf,trial,seed")
    assert len(lines) == 1 + len(cells)


def test_pivot_groups_by_mtbf(cells):
    table = pivot(cells)
    assert set(table) == {0.5, 2.0}
    assert all(len(group) == 2 for group in table.values())

"""DP-scaling sweep tests (hybrid throughput vs. replica count)."""

import pytest

from repro.analysis.dp_scaling import (
    COLUMNS,
    dp_scaling_sweep,
    dp_scaling_tasks,
)
from repro.analysis.reporting import to_csv
from repro.runtime import ResultCache, RuntimeConfig, SweepRuntime

from tests.conftest import tiny_job


def scaling_job():
    return tiny_job(system="dapple", n_minibatches=2)


@pytest.fixture(scope="module")
def cells():
    return dp_scaling_sweep(scaling_job(), dp_grid=(1, 2), system="none")


def test_tasks_are_labeled_and_hybrid(server):
    tasks = dp_scaling_tasks(scaling_job(), dp_grid=(1, 2), system="none")
    assert [t.hybrid.dp for t in tasks] == [1, 2]
    assert all(t.label.startswith("dp-scaling/none/") for t in tasks)
    # Distinct degrees must address distinct cache entries.
    assert len({t.cache_key() for t in tasks}) == 2


def test_curve_shape(cells):
    assert [cell.dp for cell in cells] == [1, 2]
    assert all(cell.ok for cell in cells)
    assert cells[0].scaling_efficiency == pytest.approx(1.0)
    assert cells[0].exposed_allreduce == 0.0
    assert cells[1].exposed_allreduce >= 0.0
    assert all(cell.samples_per_second > 0 for cell in cells)


def test_efficiency_is_rate_over_ideal(cells):
    base = cells[0].samples_per_second
    assert cells[1].scaling_efficiency == pytest.approx(
        cells[1].samples_per_second / (2 * base))


def test_sweep_caches_like_any_other(tmp_path):
    cache = ResultCache(str(tmp_path))
    runtime = SweepRuntime(RuntimeConfig(jobs=1, cache=cache))
    first = dp_scaling_sweep(scaling_job(), dp_grid=(1, 2), system="none",
                             runtime=runtime)
    again = dp_scaling_sweep(scaling_job(), dp_grid=(1, 2), system="none",
                             runtime=runtime)
    assert again == first
    # Every cell of the second curve came from the cache.
    report = runtime.run(
        dp_scaling_tasks(scaling_job(), dp_grid=(1, 2), system="none"))
    assert report.cached == 2 and report.executed == 0


def test_csv_round_trip(cells):
    text = to_csv(cells, COLUMNS)
    lines = text.strip().splitlines()
    assert lines[0].startswith("dp,ok,samples_per_second")
    assert len(lines) == 1 + len(cells)
    assert lines[1].startswith("1,1,")

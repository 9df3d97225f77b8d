"""Section IV-D: device-mapping search wall time.

Paper: an extreme stress case completes within 47 s single-threaded;
the evaluation's real cases take a few seconds.  Our exact search
enumerates all 40320 mappings of an 8-GPU server and runs the spare
assignment once per distinct exporter x importer lane sub-matrix.
"""

from repro.core.device_mapping import search_device_mapping
from repro.hardware.topology import dgx1_topology
from repro.units import GiB


def _stress_case():
    topology = dgx1_topology()
    # Every stage overflowing or spare — the densest assignment work.
    overflow = [int(x * GiB) for x in (30, 24, 18, 12, 0, 0, 0, 0)]
    spare = [int(x * GiB) for x in (0, 0, 0, 0, 8, 12, 20, 28)]
    return search_device_mapping(topology, overflow, spare, mode="exact")


def test_mapping_search_wall_time(benchmark):
    result = benchmark.pedantic(_stress_case, rounds=3, iterations=1)
    print()
    print(f"exact search: {result.mappings_evaluated} mappings "
          f"({result.distinct_evaluations} distinct evaluations), "
          f"placed {result.placed_fraction:.2f}, map {result.device_map}")
    assert result.mappings_evaluated == 40320
    # Overflow (84 GiB) exceeds spare (68 GiB); the search must place
    # everything the spare can hold.
    assert result.placed_fraction > 0.78


def test_greedy_search_is_cheaper(benchmark):
    topology = dgx1_topology()
    overflow = [int(30 * GiB)] + [0] * 7
    spare = [0] * 4 + [int(12 * GiB)] * 4

    def greedy():
        return search_device_mapping(topology, overflow, spare, mode="greedy")

    result = benchmark.pedantic(greedy, rounds=3, iterations=1)
    print()
    print(f"greedy search: {result.mappings_evaluated} mappings "
          f"({result.distinct_evaluations} distinct evaluations)")
    assert result.mappings_evaluated == 5040

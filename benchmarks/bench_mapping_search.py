"""Section IV-D: device-mapping search wall time.

Paper: an extreme stress case completes within 47 s single-threaded;
the evaluation's real cases take a few seconds.  Our exact search
covers all 40320 mappings of an 8-GPU server without walking them:
on DGX-1 every GPU relabelling that keeps the lane counts maps a
mapping to one with the same score, so only the 5040 mappings with
stage 0 on device 0 are enumerated.  Their distinct exporter x
importer lane sub-matrices form a trie of exporter rows, walked with
a bound on the score that skips most of it.
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
          f"({result.distinct_evaluations} distinct sub-matrices, "
          f"{result.bound_pruned} cut by the bound), "
          f"placed {result.placed_fraction:.2f}, map {result.device_map}")
    assert result.mappings_evaluated == 40320
    # Overflow (84 GiB) exceeds spare (68 GiB); the search must place
    # everything the spare can hold.
    assert result.placed_fraction > 0.78
    # The winner of the plain enumeration, and the bound must fire.
    assert result.device_map == [0, 7, 5, 6, 2, 1, 3, 4]
    assert result.score.hex() == "0x1.128bbc3eee37bp+38"
    assert 0 < result.bound_pruned < result.distinct_evaluations


def test_greedy_search_is_cheaper(benchmark):
    topology = dgx1_topology()
    overflow = [int(30 * GiB)] + [0] * 7
    spare = [0] * 4 + [int(12 * GiB)] * 4

    def greedy():
        return search_device_mapping(topology, overflow, spare, mode="greedy")

    result = benchmark.pedantic(greedy, rounds=3, iterations=1)
    print()
    print(f"greedy search: {result.mappings_evaluated} mappings "
          f"({result.distinct_evaluations} distinct sub-matrices)")
    assert result.mappings_evaluated == 5040

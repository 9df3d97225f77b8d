"""Device-mapping search tests (Figure 6)."""

import json
import os

import pytest

from repro.core.device_mapping import (
    MappingResult,
    _lane_matrix,
    _orbit_minima,
    assign_spare_memory,
    search_device_mapping,
)
from repro.errors import MappingError
from repro.hardware.topology import dgx1_topology, dgx2_topology
from repro.units import GiB

from tests.conftest import dgx1_without_0_4, small_topology

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "device_mapping_search.json")


def _gib(values):
    return [int(v * GiB) for v in values]


class TestAssignSpareMemory:
    def test_full_placement_when_spare_suffices(self):
        topo = small_topology()
        overflow = _gib([2, 0, 0, 0])
        spare = _gib([0, 4, 4, 4])
        evaluation = assign_spare_memory(topo, (0, 1, 2, 3), overflow, spare)
        assert evaluation.placed_fraction == pytest.approx(1.0)
        assert sum(evaluation.assignments[0].values()) == overflow[0]

    def test_respects_spare_budgets(self):
        topo = small_topology()
        overflow = _gib([10, 0, 0, 0])
        spare = _gib([0, 1, 1, 1])
        evaluation = assign_spare_memory(topo, (0, 1, 2, 3), overflow, spare)
        for alloc in evaluation.assignments.values():
            for imp, amount in alloc.items():
                assert amount <= spare[imp]

    def test_unreachable_spare_unused(self):
        topo = dgx1_topology()
        overflow = [int(1 * GiB)] + [0] * 7
        spare = [0] * 7 + [int(10 * GiB)]  # stage 7 on device 7: no link to 0
        evaluation = assign_spare_memory(topo, tuple(range(8)), overflow, spare)
        assert evaluation.placed_fraction == 0.0

    def test_high_pressure_exporters_served_first(self):
        topo = small_topology()
        overflow = _gib([4, 1, 0, 0])
        spare = _gib([0, 0, 2, 2])
        evaluation = assign_spare_memory(topo, (0, 1, 2, 3), overflow, spare)
        placed_0 = sum(evaluation.assignments.get(0, {}).values())
        placed_1 = sum(evaluation.assignments.get(1, {}).values())
        assert placed_0 >= placed_1


class TestSearch:
    def test_finds_full_placement_that_identity_misses(self):
        topo = dgx1_topology()
        # Heavy stage 0 needs spare that only stages 6/7 have; a good
        # mapping routes it over NVLink neighbours.
        overflow = _gib([29, 17, 7, 0, 0, 0, 0, 0])
        spare = _gib([0, 0, 0, 0.7, 6, 8, 15, 25])
        result = search_device_mapping(topo, overflow, spare, mode="exact")
        assert result.placed_fraction == pytest.approx(1.0)
        assert result.mappings_evaluated == 40320

    def test_paper_bert_064_vectors(self):
        # Importer demand and reserved spare the planner derives for
        # BERT-0.64 under PipeDream on DGX-1 (3 exporters, 5 importers).
        topo = dgx1_topology()
        overflow = [32064531312, 18704309932, 16032265656, 0, 0, 0, 0, 0]
        spare = [0, 0, 0, 592633597, 6792517006, 9025078093,
                 16464938183, 28531852701]
        result = search_device_mapping(topo, overflow, spare, mode="exact")
        assert result.device_map == [0, 7, 5, 6, 2, 1, 4, 3]
        assert result.score == pytest.approx(264066612548.33856, rel=1e-12)
        assert result.mappings_evaluated == 40320
        assert result.distinct_evaluations == 2340
        assert result.bound_pruned == 2274
        best = assign_spare_memory(topo, tuple(result.device_map), overflow, spare)
        assert result.assignments == best.assignments
        assert result.placed_fraction == best.placed_fraction

    def test_symmetric_topology_short_circuits(self):
        topo = dgx2_topology()
        overflow = _gib([10] + [0] * 7)
        spare = _gib([0] * 4 + [5] * 4)
        result = search_device_mapping(topo, overflow, spare)
        assert result.device_map == list(range(8))
        assert result.mappings_evaluated == 1
        assert result.distinct_evaluations == 1
        assert result.placed_fraction == pytest.approx(1.0)

    def test_no_overflow_returns_identity(self):
        topo = dgx1_topology()
        result = search_device_mapping(topo, [0] * 8, _gib([1] * 8))
        assert result.device_map == list(range(8))

    def test_greedy_mode_anchors_stage_zero(self):
        topo = dgx1_topology()
        overflow = _gib([5, 0, 0, 0, 0, 0, 0, 0])
        spare = _gib([0, 0, 0, 0, 2, 2, 2, 2])
        result = search_device_mapping(topo, overflow, spare, mode="greedy")
        assert result.device_map[0] == 0
        assert result.mappings_evaluated == 5040

    def test_importer_budget_helper(self):
        result = MappingResult(
            device_map=[0, 1],
            score=1.0,
            placed_fraction=1.0,
            assignments={0: {1: 100}, 2: {1: 50}},
        )
        assert result.importer_budget(1) == 150

    def test_input_validation(self):
        topo = small_topology()
        with pytest.raises(MappingError):
            search_device_mapping(topo, [0] * 3, [0] * 4)
        with pytest.raises(MappingError):
            search_device_mapping(topo, [0] * 4, [0] * 4, mode="random")

    def test_mapping_is_permutation(self):
        topo = small_topology()
        overflow = _gib([3, 0, 0, 0])
        spare = _gib([0, 1, 1, 2])
        result = search_device_mapping(topo, overflow, spare, mode="exact")
        assert sorted(result.device_map) == [0, 1, 2, 3]


class TestSymmetry:
    def test_dgx1_is_vertex_transitive(self):
        assert _orbit_minima(_lane_matrix(dgx1_topology())) == [0]

    def test_dropping_a_link_splits_the_orbits(self):
        # Orbits: {0, 4} lose their double link, {3, 7} keep a double
        # link to one of them, and {1, 2, 5, 6} are the rest.
        assert _orbit_minima(_lane_matrix(dgx1_without_0_4())) == [0, 1, 3]

    def test_exact_covers_the_full_space_off_device_zero(self):
        # The first best mapping puts stage 0 on device 1: the search
        # must enumerate beyond the device-0 anchor to find it.
        overflow = [22974544030, 0, 11482392336, 0, 16795742203,
                    13333368626, 14507294716, 4366891498]
        spare = [291374722, 0, 22886071629, 0, 28640206749, 31505921496,
                 0, 7300150019]
        exact = search_device_mapping(dgx1_without_0_4(), overflow, spare,
                                      mode="exact")
        greedy = search_device_mapping(dgx1_without_0_4(), overflow, spare,
                                       mode="greedy")
        assert exact.mappings_evaluated == 40320
        assert greedy.mappings_evaluated == 5040
        assert exact.device_map == [1, 0, 2, 4, 6, 5, 7, 3]
        assert exact.score > greedy.score


def _golden_cases():
    with open(GOLDEN) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize(
    "case", _golden_cases(), ids=lambda c: f"{c['name']}-{c['mode']}")
def test_search_matches_plain_enumeration_golden(case):
    """Outcomes recorded from the plain enumeration the search replaced.

    The golden was produced by walking every mapping in
    ``itertools.permutations`` order (stage 0 on device 0 in greedy
    mode), running the assignment for the first mapping of each
    distinct lane sub-matrix and keeping the first strictly greater
    score.  It shares no code with the symmetry, trie or bound.
    """
    topo = (dgx1_topology() if case["topology"] == "dgx1"
            else dgx1_without_0_4())
    result = search_device_mapping(topo, case["overflow"], case["spare"],
                                   mode=case["mode"])
    assert result.device_map == case["device_map"]
    assert result.score.hex() == case["score"]
    assert result.placed_fraction == case["placed_fraction"]
    assert result.assignments == {
        int(exporter): {int(imp): amount for imp, amount in alloc.items()}
        for exporter, alloc in case["assignments"].items()
    }
    assert result.mappings_evaluated == case["mappings_evaluated"]
    assert result.distinct_evaluations == case["distinct_evaluations"]
    assert 0 <= result.bound_pruned < result.distinct_evaluations

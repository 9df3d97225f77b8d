"""Property-based tests for the device-mapping search."""

import itertools

from hypothesis import Phase, example, given, settings, strategies as st

from repro.core.device_mapping import _score, assign_spare_memory, search_device_mapping
from repro.hardware.topology import dgx1_topology, dgx2_topology

from tests.conftest import dgx1_without_0_4

TOPO = dgx1_topology()

byte_vectors = st.lists(
    st.integers(min_value=0, max_value=30 * 2**30), min_size=8, max_size=8
)


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=30, deadline=None)
def test_assignment_invariants(overflow, spare):
    evaluation = assign_spare_memory(TOPO, tuple(range(8)), overflow, spare)
    # Per-importer totals never exceed that importer's spare.
    received = {}
    for exporter, alloc in evaluation.assignments.items():
        assert overflow[exporter] > 0
        for importer, amount in alloc.items():
            assert amount > 0
            received[importer] = received.get(importer, 0) + amount
    for importer, amount in received.items():
        assert amount <= spare[importer]
    # Per-exporter totals never exceed the exporter's demand.
    for exporter, alloc in evaluation.assignments.items():
        assert sum(alloc.values()) <= overflow[exporter]
    # Placed fraction is consistent.
    total_overflow = sum(overflow)
    placed = sum(sum(a.values()) for a in evaluation.assignments.values())
    if total_overflow:
        assert abs(evaluation.placed_fraction - placed / total_overflow) < 1e-9
    # Only NVLink-reachable pairs are used.
    for exporter, alloc in evaluation.assignments.items():
        for importer in alloc:
            assert TOPO.lanes(exporter, importer) > 0


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=10, deadline=None)
def test_search_returns_valid_permutation(overflow, spare):
    result = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    assert sorted(result.device_map) == list(range(8))
    assert 0.0 <= result.placed_fraction <= 1.0


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=10, deadline=None)
def test_search_never_worse_than_identity(overflow, spare):
    identity_eval = assign_spare_memory(TOPO, tuple(range(8)), overflow, spare)
    result = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    # Greedy anchors stage 0 at device 0 but still explores 5040
    # mappings including the identity, so its *score* (the search
    # objective — revenue over transfer time, which may trade a sliver
    # of placed bytes for a faster layout) cannot lose to identity's.
    assert result.score >= _score(identity_eval) - 1e-9


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=20, deadline=None)
def test_switched_topology_places_all_reachable(overflow, spare):
    # A stage never both overflows and offers spare (the planner
    # derives them from the same peak), so zero out the conflicts.
    spare = [0 if overflow[i] > 0 else spare[i] for i in range(8)]
    topo = dgx2_topology()
    evaluation = assign_spare_memory(topo, tuple(range(8)), overflow, spare)
    # Full crossbar: placement is only limited by totals.
    expected = min(sum(overflow), sum(spare))
    placed = sum(sum(a.values()) for a in evaluation.assignments.values())
    assert placed >= expected * 0.99 - 8  # rounding slack


# Sparse vectors (most stages neither export nor import) vary the
# exporter and importer counts, and so the number of distinct lane
# sub-matrices the search evaluates.
sparse_vectors = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=30 * 2**30)),
    min_size=8, max_size=8,
)


def _brute_force(overflow, spare, mode, topology=TOPO):
    """Score every enumerated mapping; the first best one wins ties."""
    if mode == "exact":
        source = itertools.permutations(range(8))
    else:
        source = ((0,) + rest for rest in itertools.permutations(range(1, 8)))
    best = None
    count = 0
    for device_map in source:
        count += 1
        evaluation = assign_spare_memory(topology, device_map, overflow, spare)
        score = _score(evaluation)
        if best is None or score > best[1]:
            best = (list(device_map), score, evaluation.placed_fraction,
                    evaluation.assignments)
    return best + (count,)


def _outcome(result):
    return (result.device_map, result.score, result.placed_fraction,
            result.assignments, result.mappings_evaluated)


def _nonempty(overflow, spare):
    # The search short-circuits to identity without overflow, and
    # scores every mapping 0 without spare; keep at least one exporter
    # and one importer so the enumeration has something to rank.
    if not any(overflow):
        overflow = [2**30] + overflow[1:]
    if not any(spare):
        spare = spare[:7] + [2**30]
    return overflow, spare


# Each example scores 40,320 mappings twice (seconds), so a failing
# example is reported as found rather than shrunk.
@given(overflow=sparse_vectors, spare=sparse_vectors)
@settings(max_examples=2, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_exact_search_matches_brute_force(overflow, spare):
    overflow, spare = _nonempty(overflow, spare)
    result = search_device_mapping(TOPO, overflow, spare, mode="exact")
    assert _outcome(result) == _brute_force(overflow, spare, "exact")
    assert 1 <= result.distinct_evaluations <= result.mappings_evaluated


@given(overflow=sparse_vectors, spare=sparse_vectors)
@settings(max_examples=6, deadline=None)
def test_greedy_search_matches_brute_force(overflow, spare):
    overflow, spare = _nonempty(overflow, spare)
    result = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    assert _outcome(result) == _brute_force(overflow, spare, "greedy")


# Not vertex-transitive, so exact and greedy search may differ.
TOPO_WITHOUT_0_4 = dgx1_without_0_4()


@given(overflow=sparse_vectors, spare=sparse_vectors,
       mode=st.sampled_from(["exact", "greedy"]))
@example(
    overflow=[22974544030, 0, 11482392336, 0, 16795742203, 13333368626,
              14507294716, 4366891498],
    spare=[291374722, 0, 22886071629, 0, 28640206749, 31505921496, 0,
           7300150019],
    mode="exact",
)
@settings(max_examples=1, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_non_transitive_search_matches_brute_force(overflow, spare, mode):
    overflow, spare = _nonempty(overflow, spare)
    result = search_device_mapping(TOPO_WITHOUT_0_4, overflow, spare, mode=mode)
    assert _outcome(result) == _brute_force(overflow, spare, mode,
                                            TOPO_WITHOUT_0_4)


@given(overflow=sparse_vectors, spare=sparse_vectors)
@settings(max_examples=20, deadline=None)
def test_exact_equals_greedy_on_dgx1(overflow, spare):
    # DGX-1 is vertex-transitive: every device is the image of device
    # 0 under a lane-preserving relabelling, so pinning stage 0 to
    # device 0 loses nothing.
    overflow, spare = _nonempty(overflow, spare)
    exact = search_device_mapping(TOPO, overflow, spare, mode="exact")
    greedy = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    assert (exact.mappings_evaluated, greedy.mappings_evaluated) == (40320, 5040)
    fields = ("device_map", "score", "placed_fraction", "assignments",
              "distinct_evaluations", "bound_pruned")
    assert ([getattr(exact, f) for f in fields]
            == [getattr(greedy, f) for f in fields])

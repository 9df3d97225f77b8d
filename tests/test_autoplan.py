"""The unified auto-parallel planner: candidate generation under a
memory budget (heterogeneous boxes included), contended sync pricing,
the pruned frontier search, and the surfaces above it (SimTask,
jobspec, CLI).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoplan import (
    AutoPlanConfig,
    autoplan,
    default_budget_bytes,
    frontier_size,
    generate_candidates,
    price_candidate,
    shape_cluster_config,
    shape_grid,
)
from repro.analysis.cluster_scaling import (
    cluster_scaling_sweep,
    full_shape_grid,
    grid_winner,
)
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.device import HostSpec, NVMeSpec
from repro.hardware.links import NVLINK2
from repro.hardware.server import Server
from repro.hardware.topology import Topology
from repro.jobspec import task_from_spec
from repro.models.config import TransformerConfig
from repro.models.layers import build_model
from repro.parallel.cluster import ClusterPlacement, cluster_placement
from repro.parallel.placement import replica_placement
from repro.runtime.task import SimTask, execute_task
from repro.units import GBps, GiB
from tests.conftest import TINY_GPU, small_server, tiny_job


def two_gpu_server() -> Server:
    """A half-size box for heterogeneous-cluster tests."""
    topology = Topology(n_gpus=2, kind="direct", nvlink=NVLINK2,
                        adjacency={frozenset((0, 1)): 2})
    return Server(
        name="small-2gpu",
        gpus=[TINY_GPU] * 2,
        topology=topology,
        host=HostSpec(memory_bytes=64 * GiB, vcpus=16),
        nvme=NVMeSpec(capacity_bytes=512 * GiB, read_bandwidth=4 * GBps,
                      write_bandwidth=3 * GBps),
    )


@pytest.fixture(scope="module")
def cluster():
    return Cluster(name="2x-small", servers=(small_server(), small_server()))


@pytest.fixture(scope="module")
def mixed_cluster():
    return Cluster(name="mixed", servers=(small_server(), two_gpu_server()))


@pytest.fixture(scope="module")
def job():
    return tiny_job()


# -- layer 1: the candidate generator ------------------------------------


class TestShapeGrid:
    def test_blocks_fit_largest_server(self, cluster):
        for tp, dp, pp in shape_grid(cluster):
            assert tp * pp <= 4          # chains never straddle a box
            assert tp * dp * pp <= cluster.topology.n_gpus

    def test_heterogeneous_grid_uses_largest_box(self, mixed_cluster):
        shapes = shape_grid(mixed_cluster)
        assert (4, 1, 1) in shapes       # fits the 4-GPU box
        assert all(tp * pp <= 4 for tp, _, pp in shapes)
        assert all(tp * dp * pp <= 6 for tp, dp, pp in shapes)

    def test_default_budget_is_smallest_gpu(self, mixed_cluster):
        assert default_budget_bytes(mixed_cluster) == TINY_GPU.memory_bytes


class TestGenerateCandidates:
    def test_every_shape_accounted_for(self, job, cluster):
        candidates, rejected = generate_candidates(job, cluster)
        assert len(candidates) + len(rejected) == len(shape_grid(cluster))

    def test_chains_never_straddle_servers(self, job, mixed_cluster):
        candidates, _ = generate_candidates(job, mixed_cluster)
        topology = mixed_cluster.topology
        assert candidates
        for candidate in candidates:
            for replica in candidate.placement.chains:
                for chain in replica:
                    assert len({topology.server_of(d) for d in chain}) == 1

    def test_budget_infeasible_rejected_with_reason(self, job, cluster):
        candidates, rejected = generate_candidates(
            job, cluster, budget_bytes=1024)
        assert not candidates
        assert len(rejected) == len(shape_grid(cluster))
        for reject in rejected:
            assert "budget" in reject.reason

    def test_unshardable_tp_rejected_with_reason(self, cluster):
        config = TransformerConfig(
            name="Tiny-2head", n_layers=6, hidden=256, heads=2,
            vocab=1000, seq_len=64, max_positions=128)
        job = tiny_job(model=build_model(config))
        candidates, rejected = generate_candidates(job, cluster)
        assert all(c.tp <= 2 for c in candidates)
        tp4 = [r for r in rejected if r.tp == 4]
        assert tp4 and all("head" in r.reason for r in tp4)

    def test_demand_dominates_floor(self, job, cluster):
        candidates, _ = generate_candidates(job, cluster)
        for candidate in candidates:
            assert len(candidate.stage_demand_bytes) == max(candidate.pp, 1)
            for demand, floor in zip(candidate.stage_demand_bytes,
                                     candidate.stage_floor_bytes):
                assert demand >= floor

    def test_over_budget_but_floor_fits_is_kept_flagged(self, job, cluster):
        candidates, _ = generate_candidates(job, cluster)
        floors = max(max(c.stage_floor_bytes) for c in candidates)
        demands = max(c.peak_demand_bytes for c in candidates)
        assert demands > floors
        budget = (floors + demands) // 2
        squeezed, rejected = generate_candidates(
            job, cluster, budget_bytes=budget)
        flagged = [c for c in squeezed if not c.fits_unaided]
        assert flagged                   # pressured shapes kept, not dropped
        for candidate in flagged:
            assert max(candidate.stage_floor_bytes) <= budget


# -- layer 2: contended pricing ------------------------------------------


def _price_all(job, cluster, budget=None, config=None):
    config = config or AutoPlanConfig()
    budget = budget if budget is not None else default_budget_bytes(cluster)
    candidates, _ = generate_candidates(job, cluster)
    flat = cluster.as_server()
    return [
        price_candidate(job, cluster, candidate,
                        shape_cluster_config(candidate.shape, config),
                        budget, flat_server=flat)
        for candidate in candidates
    ]


class TestPricing:
    def test_contended_never_cheaper_than_independent(self, job, cluster):
        prices = _price_all(job, cluster)
        assert any(p.crosses_fabric for p in prices)
        for price in prices:
            assert price.contended_sync_seconds >= \
                price.independent_sync_seconds - 1e-12
            assert price.contention_seconds >= 0.0

    def test_no_contention_without_tp_or_fabric(self, job, cluster):
        for price in _price_all(job, cluster):
            if price.tp == 1 and not price.crosses_fabric:
                assert price.contention_seconds == pytest.approx(0.0)

    def test_overflow_charges_pcie_pressure(self, job, cluster):
        candidates, _ = generate_candidates(job, cluster)
        floors = max(max(c.stage_floor_bytes) for c in candidates)
        demands = max(c.peak_demand_bytes for c in candidates)
        budget = (floors + demands) // 2
        config = AutoPlanConfig()
        flat = cluster.as_server()
        squeezed, _ = generate_candidates(job, cluster, budget_bytes=budget)
        prices = [
            price_candidate(job, cluster, candidate,
                            shape_cluster_config(candidate.shape, config),
                            budget, flat_server=flat)
            for candidate in squeezed
        ]
        over = [p for p in prices if not p.fits_unaided]
        assert over and all(p.pressure_seconds > 0 for p in over)
        assert all(p.pressure_seconds == 0 for p in prices if p.fits_unaided)

    @settings(max_examples=8, deadline=None)
    @given(
        microbatch_size=st.integers(min_value=1, max_value=4),
        microbatches=st.integers(min_value=2, max_value=8),
    )
    def test_contention_property_over_job_geometry(
            self, microbatch_size, microbatches):
        cluster = Cluster(name="2x-small",
                          servers=(small_server(), small_server()))
        job = tiny_job(microbatch_size=microbatch_size,
                       microbatches_per_minibatch=microbatches)
        for price in _price_all(job, cluster):
            assert price.contended_sync_seconds >= \
                price.independent_sync_seconds - 1e-12
            if price.tp == 1 and not price.crosses_fabric:
                assert price.contention_seconds == pytest.approx(0.0)


# -- layer 3: the frontier search ----------------------------------------


class TestFrontierSize:
    def test_fraction_and_cap(self):
        assert frontier_size(16, AutoPlanConfig()) == 4
        assert frontier_size(30, AutoPlanConfig()) == 8
        assert frontier_size(16, AutoPlanConfig(max_frontier=2)) == 2
        assert frontier_size(1, AutoPlanConfig()) == 1
        assert frontier_size(0, AutoPlanConfig()) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AutoPlanConfig(frontier_fraction=0.0)
        with pytest.raises(ConfigurationError):
            AutoPlanConfig(frontier_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AutoPlanConfig(max_frontier=0)
        with pytest.raises(ConfigurationError):
            AutoPlanConfig(budget_gib=-1)


class TestAutoplan:
    def test_winner_matches_exhaustive_grid(self, job, cluster):
        report = autoplan(job, cluster)
        assert report.simulated_fraction <= 0.30
        assert report.best is not None and report.best.ok
        shapes = full_shape_grid(job, cluster)
        cells = cluster_scaling_sweep(job, cluster, shapes=shapes)
        winner = grid_winner(cells)
        assert report.best.shape == (winner.tp, winner.dp, winner.pp)
        assert report.best.samples_per_second == pytest.approx(
            winner.samples_per_second)

    def test_counters_consistent(self, job, cluster):
        report = autoplan(job, cluster)
        assert report.n_enumerated == report.n_valid + report.n_rejected
        assert report.n_priced == report.n_valid == len(report.ranked)
        assert report.n_simulated == \
            sum(1 for row in report.ranked if row.simulated)
        assert report.n_simulated == frontier_size(
            report.n_valid, report.config)

    def test_ranking_is_deterministic(self, job, cluster):
        first = autoplan(job, cluster)
        second = autoplan(job, cluster)
        assert [r.shape for r in first.ranked] == \
            [r.shape for r in second.ranked]
        assert [r.reason for r in first.rejected] == \
            [r.reason for r in second.rejected]

    def test_report_json_surface(self, job, cluster):
        report = autoplan(job, cluster)
        payload = json.loads(report.json_text(job))
        assert payload["cluster"] == cluster.name
        assert payload["best"]["tp"] == report.best.price.tp
        assert payload["counters"]["n_simulated"] == report.n_simulated
        assert len(payload["ranked"]) == len(report.ranked)
        row = payload["best"]
        for key in ("exposed_tp_sync", "exposed_allreduce",
                    "contention_seconds", "peak_demand_gib", "peak_gib",
                    "samples_per_second", "cache_key"):
            assert key in row
        assert report.summary().startswith("autoplan over")

    def test_infeasible_budget_reports_rejections(self, job, cluster):
        report = autoplan(job, cluster, budget_gib=2 ** -20)  # 1 KiB
        assert report.best is None
        assert report.n_valid == 0
        assert report.n_rejected == report.n_enumerated > 0
        assert all("budget" in r.reason for r in report.rejected)

    def test_accepts_bare_server(self, job):
        report = autoplan(job, small_server())
        assert report.best is not None and report.best.ok
        assert all(row.price.dp * row.price.tp * max(row.price.pp, 1) <= 4
                   for row in report.ranked)

    def test_heterogeneous_cluster(self, job, mixed_cluster):
        report = autoplan(job, mixed_cluster)
        assert report.best is not None and report.best.ok
        assert report.simulated_fraction <= 0.30


# -- canonical tie-breaking ----------------------------------------------


class TestTieBreaks:
    def test_cluster_key_prefers_packed_then_stage_major(self):
        base = dict(chains=(((0, 1),), ((2, 3),)), tp_score=0.0,
                    allreduce_score=0.5, pipeline_score=0.5)
        packed = ClusterPlacement(mode="packed", stage_major=True, **base)
        spread = ClusterPlacement(mode="spread", stage_major=True, **base)
        minor = ClusterPlacement(mode="packed", stage_major=False, **base)
        assert packed.canonical_key < spread.canonical_key
        assert packed.canonical_key < minor.canonical_key
        assert sorted([spread, minor, packed],
                      key=lambda p: p.canonical_key)[0] is packed

    def test_replica_placement_ties_resolve_alphabetically(
            self, switched_server):
        # On a switch every layout scores the same: the tie goes to
        # the alphabetically first mode, then the smaller groups.
        topology = switched_server.topology
        contiguous = replica_placement(topology, 2, mode="contiguous")
        strided = replica_placement(topology, 2, mode="strided")
        assert contiguous.score == strided.score
        assert contiguous.chains != strided.chains
        assert replica_placement(topology, 2) == contiguous

    def test_cluster_placement_is_stable(self, cluster):
        first = cluster_placement(cluster.topology, 2, 2, 2)
        second = cluster_placement(cluster.topology, 2, 2, 2)
        assert first == second


# -- the SimTask surface -------------------------------------------------


class TestSimTaskAutoplan:
    def test_requires_cluster(self, job):
        with pytest.raises(ConfigurationError, match="Cluster"):
            SimTask(label="t", job=job, system="mpress",
                    autoplan=AutoPlanConfig())

    def test_rejects_explicit_cluster_config(self, job, cluster):
        from repro.parallel.cluster import ClusterConfig

        with pytest.raises(ConfigurationError, match="shape"):
            SimTask(label="t", job=job, system="mpress", cluster=cluster,
                    cluster_config=ClusterConfig(tp=1, dp=2, pp=2),
                    autoplan=AutoPlanConfig())

    def test_key_payload_is_gated(self, job, cluster):
        from repro.parallel.cluster import ClusterConfig

        plain = SimTask(label="t", job=job, system="mpress", cluster=cluster,
                        cluster_config=ClusterConfig(tp=1, dp=2, pp=2))
        auto = SimTask(label="t", job=job, system="mpress", cluster=cluster,
                       autoplan=AutoPlanConfig())
        assert "autoplan" not in plain.key_payload()
        assert "autoplan" in auto.key_payload()
        assert plain.cache_key() != auto.cache_key()

    def test_execute_mirrors_winner(self, job, cluster):
        task = SimTask(label="t", job=job, system="mpress", cluster=cluster,
                       autoplan=AutoPlanConfig(max_frontier=2))
        record = execute_task(task)
        assert record["ok"]
        report = record["autoplan"]
        assert report["counters"]["n_simulated"] == 2
        best = report["best"]
        assert record["samples_per_second"] == \
            pytest.approx(best["samples_per_second"])
        assert record["tflops"] == pytest.approx(best["tflops"])

    def test_frontier_keys_match_exhaustive_cells(self, job, cluster):
        """Autoplan frontier tasks warm the same cache as grid sweeps."""
        from repro.analysis.cluster_scaling import cluster_scaling_tasks

        shape = (1, 2, 2)
        frontier_config = shape_cluster_config(shape, AutoPlanConfig())
        frontier = SimTask(
            label="autoplan/mpress/2x-small/tp=1,dp=2,pp=2", job=job,
            system="mpress", cluster=cluster,
            cluster_config=frontier_config)
        [sweep] = cluster_scaling_tasks(job, cluster, shapes=[shape])
        assert frontier.cache_key() == sweep.cache_key()


# -- the jobspec surface -------------------------------------------------


class TestJobspecAutoplan:
    SPEC = {"model": "gpt-5.3", "server": "dgx1", "n_minibatches": 2}

    def test_shape_auto_builds_autoplan_task(self):
        task = task_from_spec({**self.SPEC, "shape": "auto"})
        assert task.autoplan is not None
        assert task.cluster is not None       # forced even for one box
        assert task.cluster_config is None
        assert task.label.endswith("/shape=auto")

    def test_budget_gib_flows_through(self):
        task = task_from_spec(
            {**self.SPEC, "nodes": 2, "shape": "auto", "budget_gib": 12})
        assert task.autoplan.budget_gib == 12.0
        assert task.cluster.n_servers == 2

    def test_explicit_degrees_conflict(self):
        with pytest.raises(ConfigurationError, match="tp"):
            task_from_spec({**self.SPEC, "shape": "auto", "tp": 2})

    def test_budget_without_auto_rejected(self):
        with pytest.raises(ConfigurationError, match="budget_gib"):
            task_from_spec({**self.SPEC, "budget_gib": 12})

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            task_from_spec({**self.SPEC, "shape": "best"})

    def test_explicit_shape_unchanged(self):
        task = task_from_spec({**self.SPEC, "nodes": 2, "tp": 2, "dp": 2})
        assert task.autoplan is None
        assert task.cluster_config is not None

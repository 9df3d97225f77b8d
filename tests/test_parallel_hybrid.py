"""Hybrid DP x PP: placement, bucketing, and the end-to-end run."""

import pytest

from repro.errors import ConfigurationError
from repro.parallel.bucketing import (
    GradientBucket,
    exposed_allreduce_time,
    gradient_buckets,
)
from repro.parallel.hybrid import HybridConfig, run_hybrid
from repro.parallel.placement import replica_placement, sub_server
from repro.units import MiB

from tests.conftest import tiny_job


# -- placement -----------------------------------------------------------


def test_replica_placement_small_server_prefers_strong_pairs(server):
    """On the small asymmetric topology ((0,1) and (2,3) double-brick)
    the strided layout puts both stage groups on 2-lane pairs."""
    placement = replica_placement(server.topology, dp=2)
    assert placement.dp == 2
    assert placement.tp == 1
    assert placement.pp == 2
    for stage in range(2):
        a, b = placement.dp_group(0, stage)
        assert server.topology.lanes(a, b) == 2


def test_replica_placement_dp1_is_identity(server):
    placement = replica_placement(server.topology, dp=1)
    assert placement.chains == (((0, 1, 2, 3),),)
    assert placement.allreduce_score == 0.0


def test_replica_placement_validates(server):
    with pytest.raises(ConfigurationError):
        replica_placement(server.topology, dp=3)     # does not divide 4
    with pytest.raises(ConfigurationError):
        replica_placement(server.topology, dp=4)     # 1-stage replicas
    with pytest.raises(ConfigurationError):
        replica_placement(server.topology, dp=2, mode="tetris")


def test_replica_placement_explicit_modes(server):
    contiguous = replica_placement(server.topology, dp=2, mode="contiguous")
    assert contiguous.chains == (((0, 1),), ((2, 3),))
    strided = replica_placement(server.topology, dp=2, mode="strided")
    assert strided.chains == (((0, 2),), ((1, 3),))


def test_sub_server_induces_topology(server):
    sub = sub_server(server, (0, 2, 3))
    assert sub.n_gpus == 3
    # (2,3) had 2 lanes -> local (1,2); (0,2) had 1 lane -> local (0,1).
    assert sub.topology.lanes(1, 2) == 2
    assert sub.topology.lanes(0, 1) == 1
    assert sub.host.memory_bytes == server.host.memory_bytes * 3 // 4
    assert "[0,2,3]" in sub.name


def test_sub_server_switched_keeps_lane_budget(switched_server):
    sub = sub_server(switched_server, (1, 3))
    assert sub.topology.kind == "switched"
    assert sub.topology.lane_budget == switched_server.topology.lane_budget


def test_sub_server_validates(server):
    with pytest.raises(ConfigurationError):
        sub_server(server, ())
    with pytest.raises(ConfigurationError):
        sub_server(server, (0, 0))
    with pytest.raises(ConfigurationError):
        sub_server(server, (0, 9))


def test_sub_server_single_device(server):
    # Degenerate one-GPU carve-out: a tp=1, pp=1 cluster chain.
    sub = sub_server(server, (2,))
    assert sub.n_gpus == 1
    assert sub.topology.n_gpus == 1


# -- bucketing -----------------------------------------------------------


def test_gradient_buckets_cover_payload():
    buckets = gradient_buckets(70 * MiB, 25 * MiB)
    assert len(buckets) == 3
    assert sum(b.size for b in buckets) == 70 * MiB
    assert buckets[-1].ready_fraction == 1.0
    assert buckets[0].ready_fraction == pytest.approx(1 / 3)


def test_gradient_buckets_single_when_small():
    buckets = gradient_buckets(MiB, 25 * MiB)
    assert len(buckets) == 1 and buckets[0].size == MiB


def test_bucket_validation():
    with pytest.raises(ConfigurationError):
        gradient_buckets(0, MiB)
    with pytest.raises(ConfigurationError):
        gradient_buckets(MiB, 0)
    with pytest.raises(ConfigurationError):
        GradientBucket(index=0, size=MiB, ready_fraction=0.0)


def test_exposed_time_no_overlap_is_total():
    buckets = gradient_buckets(4 * MiB, MiB)
    times = [0.5, 0.5, 0.5, 0.5]
    assert exposed_allreduce_time(buckets, times, 10.0,
                                  overlap=False) == pytest.approx(2.0)


def test_exposed_time_overlap_hides_all_but_tail():
    buckets = gradient_buckets(4 * MiB, MiB)
    times = [0.1] * 4
    # Last bucket ready at the window's end: exactly one all-reduce
    # exposed.
    assert exposed_allreduce_time(buckets, times, 100.0) == pytest.approx(0.1)
    # Zero window: everything serialises and is exposed.
    assert exposed_allreduce_time(buckets, times, 0.0) == pytest.approx(0.4)


def test_exposed_time_overlap_never_exceeds_no_overlap():
    buckets = gradient_buckets(10 * MiB, 3 * MiB)
    times = [0.3, 0.2, 0.4, 0.1]
    for window in (0.0, 0.05, 0.5, 5.0):
        with_overlap = exposed_allreduce_time(buckets, times, window)
        without = exposed_allreduce_time(buckets, times, window,
                                         overlap=False)
        assert with_overlap <= without + 1e-12


# -- config --------------------------------------------------------------


def test_hybrid_config_validates():
    with pytest.raises(ConfigurationError):
        HybridConfig(dp=0)
    with pytest.raises(ConfigurationError):
        HybridConfig(bucket_bytes=0)
    with pytest.raises(ConfigurationError):
        HybridConfig(algorithm="nccl")
    with pytest.raises(ConfigurationError):
        HybridConfig(collective_mode="exact")
    with pytest.raises(ConfigurationError):
        HybridConfig(placement_mode="tetris")


# -- end-to-end ----------------------------------------------------------


def job_for(server, system="dapple"):
    return tiny_job(server=server, system=system, n_minibatches=2)


def test_run_hybrid_dp1_equals_plain_run(server):
    job = job_for(server)
    result = run_hybrid(job, HybridConfig(dp=1), system="none")
    assert result.ok
    assert result.dp == 1
    assert result.stage_allreduce == []
    assert result.exposed_allreduce == 0.0
    from repro.core.mpress import run_system

    plain = run_system(job, "none")
    assert result.minibatch_time == pytest.approx(
        plain.simulation.minibatch_time)
    assert result.samples_per_second == pytest.approx(
        plain.samples_per_second)


def test_run_hybrid_dp2_direct(server):
    job = job_for(server)
    result = run_hybrid(job, HybridConfig(dp=2), system="none")
    assert result.ok
    assert result.dp == 2
    assert len(result.chains) == 2
    assert len(result.stage_allreduce) == result.pp
    assert result.exposed_allreduce >= 0.0
    assert result.minibatch_time == pytest.approx(
        result.chain_minibatch_time + result.exposed_allreduce)
    # Weak scaling: dp replicas each process the per-replica batch.
    assert result.samples_per_second == pytest.approx(
        2 * job.samples_per_minibatch / result.minibatch_time)


def test_run_hybrid_dp2_switched(switched_server):
    result = run_hybrid(job_for(switched_server), HybridConfig(dp=2),
                        system="none")
    assert result.ok
    for sync in result.stage_allreduce:
        assert sync.allreduce_seconds > 0.0
        assert sync.n_buckets >= 1


def test_run_hybrid_overlap_reduces_exposure(server):
    job = job_for(server)
    overlapped = run_hybrid(job, HybridConfig(dp=2, overlap=True),
                            system="none")
    serial = run_hybrid(job, HybridConfig(dp=2, overlap=False),
                        system="none")
    assert overlapped.exposed_allreduce <= serial.exposed_allreduce + 1e-12
    assert overlapped.samples_per_second >= serial.samples_per_second - 1e-9


def test_run_hybrid_simulate_mode_agrees_with_analytic(server):
    job = job_for(server)
    analytic = run_hybrid(job, HybridConfig(dp=2), system="none")
    simulated = run_hybrid(
        job, HybridConfig(dp=2, collective_mode="simulate"), system="none")
    for a, s in zip(analytic.stage_allreduce, simulated.stage_allreduce):
        assert s.allreduce_seconds == pytest.approx(
            a.allreduce_seconds, rel=1e-6)


def test_run_hybrid_reserves_bucket_staging(server):
    job = job_for(server)
    result = run_hybrid(job, HybridConfig(dp=2, bucket_bytes=MiB),
                        system="none")
    assert result.ok
    peaks = result.peak_memory_per_gpu()
    assert len(peaks) == server.n_gpus
    replica_peaks = result.chains[0][0].simulation.peak_memory_per_gpu
    group = result.placement.chain(0, 0)
    for local, device in enumerate(group):
        assert peaks[device] == int(replica_peaks[local]) + 2 * MiB


@pytest.mark.parametrize("dp", [2, 4])
def test_congruent_replicas_simulate_once(monkeypatch, dp):
    """DGX-1's replicas at dp=2 (two quads) and dp=4 (the strided
    pairs) induce the same carve-out topology, so the chain memo runs
    one simulation for all of them."""
    from repro.core import mpress
    from repro.hardware.server import dgx1_server
    from repro.job import pipedream_job
    from repro.models import bert_variant

    calls = []
    real = mpress.run_system

    def counting(*args, **kwargs):
        calls.append(args[0].server.name)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpress, "run_system", counting)
    job = pipedream_job(bert_variant(0.35), dgx1_server(), n_minibatches=2)
    result = run_hybrid(job, HybridConfig(dp=dp), system="none")
    assert result.ok and result.dp == dp
    assert len(calls) == 1
    assert all(chains[0] is result.chains[0][0] for chains in result.chains)


def test_hybrid_oom_record_names_the_replica():
    """An OOM hybrid record says which replica failed, with no TP rank
    (the cluster record's wording), byte for byte."""
    from repro.hardware.server import dgx1_server
    from repro.job import pipedream_job
    from repro.models import bert_variant
    from repro.runtime.task import SimTask, execute_task

    job = pipedream_job(bert_variant(0.64), dgx1_server(), n_minibatches=2)
    record = execute_task(SimTask(label="oom", job=job, system="none",
                                  hybrid=HybridConfig(dp=4)))
    assert not record["ok"]
    assert record["oom"] == (
        "replica 0: device gpu0: allocation of 1214565580 bytes exceeds "
        "capacity (34172827528 in use of 34359738368)")
    assert record["peak_bytes_per_gpu"] == []
    assert record["hybrid"]["replica_trace_digests"] == [None] * 4


def test_hybrid_key_payload_compatibility(server):
    """SimTask addresses without a hybrid config are byte-identical to
    the pre-hybrid format; with one, the key changes."""
    from repro.runtime.task import SimTask

    job = job_for(server)
    base = SimTask(label="t", job=job, system="none")
    assert sorted(base.key_payload()) == [
        "config", "faults", "job", "plan", "system"]
    hybrid = SimTask(label="t", job=job, system="none",
                     hybrid=HybridConfig(dp=2))
    assert "hybrid" in hybrid.key_payload()
    assert hybrid.cache_key() != base.cache_key()


def test_hybrid_task_rejects_conflicting_fields(server):
    from repro.runtime.task import SimTask

    job = job_for(server)
    with pytest.raises(ConfigurationError):
        SimTask(label="t", job=job, system="zero-offload",
                hybrid=HybridConfig(dp=2))


# -- pinned gradient sync (layouts the goldens do not reach) -------------

_PINNED_SYNC = {
    # (dp, placement_mode): per-stage (devices, algorithm, grad_bytes,
    # n_buckets, allreduce_seconds, exposed_seconds)
    (4, "strided"): [
        ((0, 1, 2, 3), "hierarchical", 782118912, 30,
         0.033452326268041246, 0.000943146886597912),
        ((4, 5, 6, 7), "hierarchical", 554233856, 22,
         0.023735004371134023, 0.00019387447422680726),
    ],
    (2, "islands"): [
        ((0, 1), "ring", 429424640, 17,
         0.018048232577319596, 0.00043213360824742586),
        ((3, 2), "ring", 352694272, 14,
         0.014824093690721655, 0.0005110132783505139),
        ((4, 5), "ring", 352694272, 14,
         0.014824093690721655, 0.0005110132783505139),
        ((7, 6), "ring", 201539584, 8,
         0.008470910680412372, 0.000763867381443295),
    ],
}


@pytest.mark.parametrize("dp,mode", sorted(_PINNED_SYNC))
def test_stage_allreduce_pinned_on_dgx1(dp, mode):
    """BERT-0.35 on DGX-1 at layouts no golden covers: the per-stage
    all-reduce accounting is pinned to the last bit."""
    from repro.hardware.server import dgx1_server
    from repro.job import pipedream_job
    from repro.models import bert_variant

    job = pipedream_job(bert_variant(0.35), dgx1_server())
    result = run_hybrid(job, HybridConfig(dp=dp, placement_mode=mode),
                        system="none")
    assert result.ok
    got = [(sync.devices, sync.algorithm, sync.grad_bytes, sync.n_buckets,
            sync.allreduce_seconds, sync.exposed_seconds)
           for sync in result.stage_allreduce]
    assert [sync.stage for sync in result.stage_allreduce] == list(
        range(len(got)))
    assert got == _PINNED_SYNC[(dp, mode)]

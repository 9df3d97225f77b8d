"""Span arithmetic, order statistics and seeded inputs."""

import itertools

import pytest

import inputs
from spans import Recorder, Span, by_name, self_times
from stats import beyond, describe, percentile


def test_self_time_subtracts_children_and_their_overlap():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),      # overlaps a: union is 1..6
        Span(3, "leaf", 2.0, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_recorder_nests_spans_and_attaches_counts():
    ticks = itertools.count()
    recorder = Recorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda x: x * 2,
                          on_return=lambda args, kwargs, result: {"items": result})
    outer = recorder.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14

    rows = by_name(recorder.spans)
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 2
    assert rows["inner"]["items"] == 14
    # outer: ticks 0..5 (5 s), children 1..2 and 3..4 (2 s).
    assert rows["outer"]["ms"] == pytest.approx(5000.0)
    assert rows["outer"]["self_ms"] == pytest.approx(3000.0)


def test_recorder_closes_span_when_call_raises():
    recorder = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0].end >= recorder.spans[0].start
    assert recorder.wrap("after", lambda: 1)() == 1
    assert recorder.spans[1].parent is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_describe_reports_highest_percentile_with_ten_beyond():
    assert beyond(100, 90) == 10
    assert beyond(200, 95) == 10
    assert set(describe(list(range(100)))) == {"n", "p50", "p90"}
    assert set(describe(list(range(1000)))) == {"n", "p50", "p99"}
    assert set(describe(list(range(50)))) == {"n", "p50"}
    assert describe([1.0, 2.0, 3.0])["n"] == 3


def test_serving_trace_is_seeded():
    first = inputs.serving_trace(5)
    assert first == inputs.serving_trace(5)
    assert first != inputs.serving_trace(6)
    assert len(first) == inputs.SERVING["n_requests"]
    arrivals = [entry[0] for entry in first]
    assert arrivals == sorted(arrivals)
    _, sd, lo, hi = inputs.SERVING["prompt"]
    assert all(lo <= entry[1] <= hi for entry in first)


def test_service_mix_is_seeded_with_fixed_repeat_share():
    mix = inputs.service_mix(3)
    assert len(mix) == inputs.TENANTS
    assert mix == inputs.service_mix(3)
    assert mix != inputs.service_mix(4)
    keys = [[inputs.canonical(spec) for spec in jobs] for jobs in mix]
    assert not set(keys[0]) & set(keys[1]), "tenants draw disjoint keys"
    for tenant in keys:
        for index, key in enumerate(tenant):
            earlier = tenant[:index]
            if index % inputs.REPEAT_EVERY == inputs.REPEAT_EVERY - 1:
                assert key in earlier
            else:
                assert key not in earlier


def test_service_mix_keeps_kind_proportions():
    jobs = inputs.service_mix(9)[0][:64]
    fresh = [spec for i, spec in enumerate(jobs)
             if i % inputs.REPEAT_EVERY != inputs.REPEAT_EVERY - 1]
    assert len(fresh) == 48          # four full decks of twelve
    assert sum(spec.get("shape") == "auto" for spec in fresh) == 4
    assert sum(spec.get("workload") == "inference" for spec in fresh) == 12


def test_warmup_specs_stay_outside_every_mix():
    warm = {inputs.canonical(spec) for spec in inputs.warmup_specs()}
    for seed in range(5):
        for jobs in inputs.service_mix(seed):
            assert not warm & {inputs.canonical(spec) for spec in jobs}


def test_benchmark_json_matches_the_code():
    import json
    import os
    import re

    from layers import PER_LAYER
    from run import END_TO_END, WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_service_run_without_a_completed_job_reports_no_timing():
    import run
    import service

    stats = {"backend": {"executed": 0, "cache_hits": 0, "coalesced": 0,
                         "failures": 0, "pool_generations": 1},
             "cache": {"hits": 0, "misses": 0, "entries": 0, "total_bytes": 0}}
    raw = {"boots_s": [0.5], "jobs": [{"spec": {}, "error": "refused"}],
           "elapsed_s": 20.0, "probe_s": [0.0026], "stats_before": stats,
           "stats_after": stats, "rss_mib": 50.0}
    fig = service.figures(raw)
    assert fig["n"] == 0 and "latency_ms" not in fig
    metrics = run.metrics_of(fig, trace=False)
    assert set(metrics) == {"setup_s", "peak_rss_mib"}

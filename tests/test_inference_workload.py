"""Serving workload model and the continuous schedule family."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.inference.workload import (
    InferenceConfig,
    Request,
    generate_requests,
)
from repro.pipeline import OpKind, continuous_schedule


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = InferenceConfig()
        assert config.arrival == "poisson"
        assert config.kv_swap == "d2d"

    @pytest.mark.parametrize("kwargs,match", [
        ({"arrival": "burst"}, "unknown arrival model"),
        ({"kv_swap": "nvme"}, "unknown kv_swap"),
        ({"n_requests": 0}, "n_requests"),
        ({"arrival_rate": 0.0}, "arrival_rate"),
        ({"prompt_mean": 4, "prompt_min": 8}, "prompt_min"),
        ({"output_mean": 256}, "output_min"),
        ({"block_tokens": 0}, "block_tokens"),
        ({"max_batch": 0}, "max_batch"),
        ({"pp": 0}, "pp"),
        ({"mfu": 0.0}, "mfu"),
        ({"kv_pool_mib": -1}, "kv_pool_mib"),
        ({"shared_prefix_fraction": 1.5}, "shared_prefix_fraction"),
        ({"shared_prefix_fraction": 0.5}, "shared_prefix_tokens"),
    ])
    def test_bad_configs_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            InferenceConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "seed", "n_requests", "prompt_mean", "prompt_min", "prompt_max",
        "output_mean", "output_min", "output_max", "block_tokens",
        "max_batch", "pp", "shared_prefix_tokens", "kv_pool_mib",
    ])
    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_integer_fields_need_real_ints(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            InferenceConfig(**{field: value})

    @pytest.mark.parametrize("field", ["arrival_rate", "mfu",
                                       "shared_prefix_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), True, "0.5"])
    def test_real_fields_need_finite_numbers(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be a finite number"):
            InferenceConfig(**{field: value})

    @pytest.mark.parametrize("entry", [
        (float("nan"), 8, 4), (float("inf"), 8, 4), (0.0, 8.5, 4),
        (0.0, 8, 4.0), (0.0, True, 4), ("0", 8, 4),
    ])
    def test_trace_entries_need_finite_arrivals_and_int_lengths(self, entry):
        with pytest.raises(ConfigurationError, match="invalid trace entry"):
            InferenceConfig(arrival="trace", trace=(entry,))

    def test_int_valued_reals_still_accepted(self):
        config = InferenceConfig(arrival_rate=32, mfu=1,
                                 shared_prefix_fraction=0, kv_pool_mib=199)
        assert config.arrival_rate == 32

    def test_trace_requires_trace_arrival_and_vice_versa(self):
        with pytest.raises(ConfigurationError, match="trace"):
            InferenceConfig(arrival="trace")
        with pytest.raises(ConfigurationError, match="trace"):
            InferenceConfig(trace=((0.0, 8, 4),))
        with pytest.raises(ConfigurationError, match="triples"):
            InferenceConfig(arrival="trace", trace=((0.0, 8),))
        with pytest.raises(ConfigurationError, match="invalid trace entry"):
            InferenceConfig(arrival="trace", trace=((0.0, 0, 4),))


class TestGeneration:
    def test_same_seed_same_stream(self):
        config = InferenceConfig(seed=7, n_requests=32)
        assert generate_requests(config) == generate_requests(config)

    def test_different_seed_different_stream(self):
        a = generate_requests(InferenceConfig(seed=1))
        b = generate_requests(InferenceConfig(seed=2))
        assert a != b

    def test_arrivals_monotone_and_lengths_clamped(self):
        config = InferenceConfig(seed=3, n_requests=64, prompt_min=32,
                                 prompt_mean=48, prompt_max=64,
                                 output_min=2, output_mean=4, output_max=8)
        requests = generate_requests(config)
        assert len(requests) == 64
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(32 <= r.prompt_tokens <= 64 for r in requests)
        assert all(2 <= r.output_tokens <= 8 for r in requests)

    def test_uniform_arrivals_are_evenly_spaced(self):
        config = InferenceConfig(arrival="uniform", n_requests=4,
                                 arrival_rate=2.0)
        requests = generate_requests(config)
        assert [r.arrival for r in requests] == [0.0, 0.5, 1.0, 1.5]

    def test_trace_replayed_in_arrival_order(self):
        config = InferenceConfig(
            arrival="trace",
            trace=((0.5, 16, 4), (0.0, 32, 8)))
        requests = generate_requests(config)
        assert [r.arrival for r in requests] == [0.0, 0.5]
        assert requests[0].prompt_tokens == 32
        assert [r.rid for r in requests] == [0, 1]

    def test_shared_prefix_requests_keep_a_private_token(self):
        config = InferenceConfig(seed=5, n_requests=64,
                                 shared_prefix_tokens=100,
                                 shared_prefix_fraction=1.0)
        requests = generate_requests(config)
        assert all(r.shared_prefix for r in requests)
        assert all(r.prompt_tokens >= 101 for r in requests)

    def test_bad_request_rejected(self):
        with pytest.raises(ConfigurationError):
            Request(rid=0, arrival=-1.0, prompt_tokens=8, output_tokens=2)


class TestContinuousSchedule:
    def test_forward_only_rows(self):
        schedule = continuous_schedule(n_stages=2, n_iterations=3)
        assert schedule.mode == "continuous"
        assert schedule.n_stages == 2
        kinds = {op.kind for row in schedule.per_stage for op in row}
        assert kinds == {OpKind.FORWARD}

    def test_every_stage_sees_every_iteration(self):
        schedule = continuous_schedule(n_stages=3, n_iterations=4)
        for stage, row in enumerate(schedule.per_stage):
            assert [op.microbatch for op in row] == [0, 1, 2, 3]

    def test_weight_versions_single(self):
        schedule = continuous_schedule(n_stages=2, n_iterations=2)
        assert all(schedule.weight_versions(s) == 1 for s in range(2))

"""Cost model tests (Table III behaviour)."""

import pytest

from repro.core.cost_model import CostModel, TensorCosts
from repro.core.profiler import Profiler
from repro.graph.tensor import TensorKind

from tests.conftest import tiny_job


@pytest.fixture(scope="module")
def profiled():
    job = tiny_job()
    profile = Profiler(job).run()
    model = CostModel(job, list(range(job.n_stages)), profile.intervals)
    return job, profile, model


def _first_act(profile, stage=0):
    return next(
        cls for cls in profile.classes
        if cls.kind is TensorKind.ACTIVATION and cls.stage == stage and cls.layer > 0
    )


class TestCosts:
    def test_cpu_swap_is_a_pcie_round_trip(self, profiled):
        job, profile, model = profiled
        cls = _first_act(profile)
        expected = 2 * (
            job.server.pcie.latency + cls.size / job.server.pcie.sustained_bandwidth
        )
        assert model.cpu_swap_cost(cls) == pytest.approx(expected)

    def test_recompute_cost_is_layer_forward_time(self, profiled):
        job, profile, model = profiled
        cls = _first_act(profile)
        layer = job.model.layers[cls.layer]
        assert model.recompute_cost(cls) == pytest.approx(
            job.layer_forward_time(layer, 0)
        )

    def test_recompute_none_for_state(self, profiled):
        _, profile, model = profiled
        opt = next(c for c in profile.classes if c.kind is TensorKind.OPTIMIZER_STATE)
        assert model.recompute_cost(opt) is None

    def test_d2d_beats_cpu_swap(self, profiled):
        # The 7.6x D2D advantage of the paper's t5 example, in spirit.
        job, profile, model = profiled
        cls = _first_act(profile)
        budgets = {dev: cls.size * 4 for dev in range(1, 4)}
        stripe = model.candidate_stripe(cls, budgets)
        assert stripe is not None
        assert model.d2d_swap_cost(cls, stripe) < model.cpu_swap_cost(cls)

    def test_candidate_stripe_excludes_exporter(self, profiled):
        job, profile, model = profiled
        cls = _first_act(profile)
        budgets = {dev: cls.size * 4 for dev in range(0, 4)}  # includes exporter
        stripe = model.candidate_stripe(cls, budgets)
        assert 0 not in stripe.importers

    def test_candidate_stripe_none_when_unreachable(self, profiled):
        _, profile, model = profiled
        cls = _first_act(profile)
        assert model.candidate_stripe(cls, {}) is None


class TestExtraOverhead:
    def test_long_interval_hides_swap(self):
        costs = TensorCosts(
            cls_key=("activation", 0, 1),
            live_interval=1.0,
            recompute=0.01,
            cpu_swap=0.5,
            d2d_swap=0.05,
        )
        assert costs.cpu_swap_extra == 0.0
        assert costs.d2d_swap_extra == 0.0
        # Recomputation always burns compute (paper Sec. III-D).
        assert costs.recompute_extra == 0.01

    def test_short_interval_exposes_swap(self):
        costs = TensorCosts(
            cls_key=("activation", 0, 1),
            live_interval=0.1,
            recompute=0.05,
            cpu_swap=0.5,
            d2d_swap=0.2,
        )
        assert costs.cpu_swap_extra == pytest.approx(0.4)
        assert costs.d2d_swap_extra == pytest.approx(0.1)

    def test_extra_overhead_by_action(self, profiled):
        _, profile, model = profiled
        cls = _first_act(profile)
        assert model.extra_overhead(cls, "recompute") > 0
        assert model.extra_overhead(cls, "none") == 0.0

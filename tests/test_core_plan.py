"""Memory-saving plan representation tests."""

import pytest

from repro.core.plan import Action, MemorySavingPlan, PlanEntry, empty_plan, validate_plan
from repro.core.striping import build_stripe_plan
from repro.errors import PlanError
from repro.graph.tensor import TensorClass, TensorKind
from repro.units import MB

from tests.conftest import small_topology


def _act(stage=0, layer=1, size=100 * MB, instances=4):
    return TensorClass(TensorKind.ACTIVATION, stage, layer, size, instances, True)


def _opt(stage=0, size=50 * MB):
    return TensorClass(TensorKind.OPTIMIZER_STATE, stage, -1, size, 1, False)


def _working(stage=0):
    return TensorClass(TensorKind.WORKING_STATE, stage, -1, 10 * MB, 1, False)


def _stripe(size, exporter=0):
    topo = small_topology()
    budgets = {dev: size for dev in range(4) if dev != exporter}
    return build_stripe_plan(topo, exporter, budgets, size)


class TestPlanEntry:
    def test_recompute_only_on_activations(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_opt(), action=Action.RECOMPUTE)

    def test_d2d_requires_stripe(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_act(), action=Action.D2D_SWAP)

    def test_stripe_size_must_match(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_act(size=100), action=Action.D2D_SWAP, stripe=_stripe(200))

    def test_stripe_forbidden_without_d2d(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_act(size=100), action=Action.CPU_SWAP, stripe=_stripe(100))

    def test_nvme_tier_only_for_cpu_swap(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_act(), action=Action.RECOMPUTE, tier="nvme")
        entry = PlanEntry(cls=_act(), action=Action.CPU_SWAP, tier="nvme")
        assert entry.tier == "nvme"

    def test_unknown_tier_rejected(self):
        with pytest.raises(PlanError):
            PlanEntry(cls=_act(), action=Action.CPU_SWAP, tier="tape")

    def test_saved_bytes(self):
        entry = PlanEntry(cls=_act(size=100, instances=4), action=Action.RECOMPUTE)
        assert entry.saved_bytes == 400
        none_entry = PlanEntry(cls=_act(), action=Action.NONE)
        assert none_entry.saved_bytes == 0


class TestMemorySavingPlan:
    def test_action_defaults_to_none(self):
        plan = empty_plan(4)
        assert plan.action_for(_act()) is Action.NONE

    def test_assign_and_lookup(self):
        plan = empty_plan(4)
        entry = PlanEntry(cls=_act(), action=Action.RECOMPUTE)
        plan.assign(entry)
        assert plan.action_for(_act()) is Action.RECOMPUTE
        assert plan.entry_for(_act()) is entry

    def test_duplicate_devices_rejected(self):
        with pytest.raises(PlanError):
            MemorySavingPlan(device_map=[0, 0, 1, 2])

    def test_device_of_bounds(self):
        plan = empty_plan(4)
        assert plan.device_of(2) == 2
        with pytest.raises(PlanError):
            plan.device_of(4)

    def test_saved_by_action_table(self):
        plan = empty_plan(4)
        plan.assign(PlanEntry(cls=_act(layer=1), action=Action.RECOMPUTE))
        plan.assign(PlanEntry(cls=_act(layer=2), action=Action.CPU_SWAP))
        saved = plan.saved_by_action()
        assert saved[Action.RECOMPUTE] == 400 * MB
        assert saved[Action.CPU_SWAP] == 400 * MB
        assert saved[Action.D2D_SWAP] == 0

    def test_stages_by_action(self):
        plan = empty_plan(4)
        plan.assign(PlanEntry(cls=_act(stage=0, layer=1), action=Action.RECOMPUTE))
        plan.assign(PlanEntry(cls=_act(stage=2, layer=5), action=Action.RECOMPUTE))
        assert plan.stages_by_action()[Action.RECOMPUTE] == [0, 2]

    def test_summary_mentions_techniques(self):
        plan = empty_plan(2)
        plan.assign(PlanEntry(cls=_act(), action=Action.RECOMPUTE))
        text = plan.summary()
        assert "recompute" in text and "device map" in text


class TestValidatePlan:
    def test_unknown_class_rejected(self):
        plan = empty_plan(4)
        plan.assign(PlanEntry(cls=_act(layer=42), action=Action.RECOMPUTE))
        with pytest.raises(PlanError):
            validate_plan(plan, [_act(layer=1)])

    def test_working_state_untouchable(self):
        plan = empty_plan(4)
        working = _working()
        plan.assign(PlanEntry(cls=working, action=Action.CPU_SWAP))
        with pytest.raises(PlanError):
            validate_plan(plan, [working])

    def test_d2d_exporter_must_match_device(self):
        plan = MemorySavingPlan(device_map=[3, 1, 2, 0])
        cls = _act(stage=0, size=90 * MB)
        stripe = _stripe(90 * MB, exporter=0)  # but stage 0 lives on device 3
        plan.assign(PlanEntry(cls=cls, action=Action.D2D_SWAP, stripe=stripe))
        with pytest.raises(PlanError):
            validate_plan(plan, [cls])

    def test_valid_plan_passes(self):
        plan = empty_plan(4)
        cls = _act(size=90 * MB)
        plan.assign(PlanEntry(cls=cls, action=Action.D2D_SWAP, stripe=_stripe(90 * MB)))
        validate_plan(plan, [cls])

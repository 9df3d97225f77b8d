"""Rewriter tests (Fig. 5 step 4)."""

import pytest

from repro.core.plan import Action
from repro.core.rewriter import Rewriter
from repro.errors import PlanError
from repro.graph.tensor import TensorKind, tensor_classes_for

from tests.conftest import tiny_job


@pytest.fixture
def setup():
    from tests.conftest import tiny_model

    job = tiny_job(model=tiny_model(n_layers=14))
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    return job, classes, Rewriter(job, classes)


def _acts(classes, stage):
    return sorted(
        (c for c in classes if c.kind is TensorKind.ACTIVATION and c.stage == stage),
        key=lambda c: c.layer,
    )


class TestInstrument:
    def test_builds_validated_plan(self, setup):
        job, classes, rewriter = setup
        target = _acts(classes, 0)[0]
        assignments = {target.key: (Action.RECOMPUTE, None)}
        program = rewriter.instrument(assignments, list(range(job.n_stages)))
        assert program.plan.action_for(target) is Action.RECOMPUTE
        assert program.program.n_stages == job.n_stages

    def test_none_assignments_skipped(self, setup):
        job, classes, rewriter = setup
        target = _acts(classes, 0)[0]
        assignments = {target.key: (Action.NONE, None)}
        program = rewriter.instrument(assignments, list(range(job.n_stages)))
        assert not program.plan.entries

    def test_unknown_key_rejected(self, setup):
        job, _, rewriter = setup
        with pytest.raises(PlanError):
            rewriter.instrument(
                {("activation", 9, 9): (Action.RECOMPUTE, None)},
                list(range(job.n_stages)),
            )

    def test_nvme_keys_set_tier(self, setup):
        job, classes, rewriter = setup
        target = _acts(classes, 0)[0]
        assignments = {target.key: (Action.CPU_SWAP, None)}
        program = rewriter.instrument(
            assignments, list(range(job.n_stages)), nvme_keys={target.key}
        )
        assert program.plan.entry_for(target).tier == "nvme"

    def test_actions_by_stage_report(self, setup):
        job, classes, rewriter = setup
        acts = _acts(classes, 1)
        assignments = {acts[0].key: (Action.RECOMPUTE, None)}
        program = rewriter.instrument(assignments, list(range(job.n_stages)))
        recomputed = [entry.cls.layer for entry in program.plan.entries.values()
                      if entry.cls.stage == 1
                      and entry.action is Action.RECOMPUTE]
        assert recomputed == [acts[0].layer]


class TestConsolidateRecompute:
    def test_fills_single_layer_gaps(self, setup):
        _, classes, rewriter = setup
        acts = _acts(classes, 0)
        assert len(acts) >= 3
        assignments = {
            acts[0].key: (Action.RECOMPUTE, None),
            acts[2].key: (Action.RECOMPUTE, None),
        }
        result = rewriter.consolidate_recompute(assignments)
        assert result[acts[1].key][0] is Action.RECOMPUTE

    def test_does_not_override_other_actions(self, setup):
        _, classes, rewriter = setup
        acts = _acts(classes, 0)
        assignments = {
            acts[0].key: (Action.RECOMPUTE, None),
            acts[1].key: (Action.CPU_SWAP, None),
            acts[2].key: (Action.RECOMPUTE, None),
        }
        result = rewriter.consolidate_recompute(assignments)
        assert result[acts[1].key][0] is Action.CPU_SWAP

    def test_noop_without_gaps(self, setup):
        _, classes, rewriter = setup
        acts = _acts(classes, 0)
        assignments = {acts[0].key: (Action.RECOMPUTE, None)}
        assert rewriter.consolidate_recompute(assignments) == assignments

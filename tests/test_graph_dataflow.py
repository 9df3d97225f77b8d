"""Data-flow program construction tests."""

import pytest

from repro.errors import ScheduleError
from repro.graph.dataflow import build_program
from repro.pipeline.dapple import dapple_schedule
from repro.pipeline.partition import partition_model
from repro.pipeline.pipedream import pipedream_schedule
from repro.pipeline.schedule import OpKind

from tests.conftest import tiny_model


def _program(n_stages=3, system="dapple"):
    model = tiny_model(n_layers=7)
    plan = partition_model(model, n_stages)
    if system == "dapple":
        sched = dapple_schedule(n_stages, 2, 4)
    else:
        sched = pipedream_schedule(n_stages, 4, 1)
    return build_program(plan, sched)


def test_forward_depends_on_upstream_forward():
    program = _program()
    node = program.node(OpKind.FORWARD, 1, 2)
    upstream = program.node(OpKind.FORWARD, 0, 2)
    assert upstream in node.deps


def test_first_stage_forward_has_no_cross_deps():
    program = _program()
    node = program.node(OpKind.FORWARD, 0, 0)
    assert node.deps == []


def test_backward_depends_on_own_forward_and_downstream_backward():
    program = _program()
    node = program.node(OpKind.BACKWARD, 1, 1)
    dep_keys = {d.key for d in node.deps}
    assert ("fwd", 1, 1) in dep_keys
    assert ("bwd", 2, 1) in dep_keys


def test_last_stage_backward_depends_only_on_forward():
    program = _program()
    node = program.node(OpKind.BACKWARD, 2, 0)
    assert {d.key for d in node.deps} == {("fwd", 2, 0)}


def test_node_lookup_raises_for_missing():
    program = _program()
    with pytest.raises(ScheduleError):
        program.node(OpKind.FORWARD, 0, 99)


def test_order_indices_match_schedule_positions():
    program = _program()
    for stage_nodes in program.per_stage:
        assert [n.order for n in stage_nodes] == list(range(len(stage_nodes)))


def test_stage_count_mismatch_rejected():
    model = tiny_model()
    plan = partition_model(model, 3)
    sched = dapple_schedule(4, 1, 4)
    with pytest.raises(ScheduleError):
        build_program(plan, sched)


def test_node_count():
    program = _program(n_stages=3)
    # Per stage: 2 minibatches x 4 microbatches x (fwd+bwd) + 2 opt.
    for stage_nodes in program.per_stage:
        assert len(stage_nodes) == 2 * 4 * 2 + 2

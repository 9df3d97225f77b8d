"""The kind table behind SimTask: validation, cache keys, dispatch.

Every kind is one row of ``repro.runtime.task._KINDS``; these
properties hold for every row, so a new kind inherits them.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoplan import AutoPlanConfig
from repro.core.plan import empty_plan
from repro.core.planner import PlannerConfig
from repro.errors import ConfigurationError
from repro.faults.spec import random_schedule
from repro.hardware.cluster import dgx1_cluster
from repro.inference import InferenceConfig
from repro.parallel.cluster import ClusterConfig
from repro.parallel.hybrid import HybridConfig
from repro.runtime.task import _KINDS, SimTask

from tests.conftest import tiny_job

JOB = tiny_job()
BASE_KEYS = {"job", "system", "config", "faults", "plan"}
OPTIONAL = tuple(field.name for field in dataclasses.fields(SimTask)
                 if field.default is None)
SYSTEMS = sorted({system for kind in _KINDS for system in kind.systems})

# One valid value per optional field.
VALUES = {
    "config": PlannerConfig(striping=False),
    "faults": random_schedule(seed=7, n_devices=JOB.server.n_gpus,
                              horizon=5.0),
    "plan": empty_plan(JOB.n_stages),
    "hybrid": HybridConfig(dp=2),
    "cluster": dgx1_cluster(2),
    "cluster_config": ClusterConfig(tp=2, dp=2, pp=2),
    "autoplan": AutoPlanConfig(budget_gib=12.0),
    "inference": InferenceConfig(n_requests=4),
}


def make(system, fields, label="t"):
    return SimTask(label=label, job=JOB, system=system,
                   **{name: VALUES[name] for name in fields})


@st.composite
def valid_tasks(draw):
    kind = draw(st.sampled_from(_KINDS))
    allowed = draw(st.sets(st.sampled_from(kind.allows))) \
        if kind.allows else set()
    task = make(draw(st.sampled_from(kind.systems)),
                set(kind.requires) | allowed,
                label=draw(st.text(max_size=8)))
    return kind, task


def test_optional_fields_match_the_table():
    named = {name for kind in _KINDS for name in kind.requires + kind.allows
             + kind.keys}
    assert named <= set(OPTIONAL)
    assert set(VALUES) == set(OPTIONAL)
    assert len({kind.name for kind in _KINDS}) == len(_KINDS)


@settings(max_examples=30, deadline=None)
@given(valid_tasks())
def test_pickle_round_trip_keeps_the_cache_key(drawn):
    kind, task = drawn
    clone = pickle.loads(pickle.dumps(task))
    assert clone.kind == task.kind == kind.name
    assert clone.cache_key() == task.cache_key()


@settings(max_examples=30, deadline=None)
@given(valid_tasks())
def test_payload_is_base_keys_plus_the_kinds_own(drawn):
    kind, task = drawn
    assert set(task.key_payload()) == BASE_KEYS | set(kind.keys)


@settings(max_examples=40, deadline=None)
@given(fields=st.sets(st.sampled_from(OPTIONAL)),
       system=st.sampled_from(SYSTEMS))
def test_a_task_is_valid_iff_one_row_admits_it(fields, system):
    rows = [kind for kind in _KINDS
            if set(kind.requires) <= fields <= set(kind.requires + kind.allows)
            and system in kind.systems]
    assert len(rows) <= 1
    if rows:
        assert make(system, fields).kind == rows[0].name
    else:
        with pytest.raises(ConfigurationError):
            make(system, fields)


@pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.name)
def test_fields_outside_the_row_raise(kind):
    row = kind.requires + kind.allows
    for name in OPTIONAL:
        if name in row:
            continue
        with pytest.raises(ConfigurationError):
            make(kind.systems[0], row + (name,))


@pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.name)
def test_disallowed_systems_raise(kind):
    row = kind.requires + kind.allows
    for system in SYSTEMS:
        if system in kind.systems:
            continue
        if not row:
            # A bare task's system alone picks its kind.
            assert make(system, row).kind != kind.name
            continue
        with pytest.raises(ConfigurationError):
            make(system, row)


def test_unknown_system_raises():
    with pytest.raises(ConfigurationError, match="unknown sweep system"):
        make("megatron", ())


def test_zero_tasks_reject_faults():
    with pytest.raises(ConfigurationError, match="faults"):
        make("zero-offload", ("faults",))


def test_jobspec_does_not_import_the_cli():
    code = ("import sys, repro.jobspec as j; "
            "j.task_from_spec({'model': 'bert-0.35', 'server': 'dgx1', "
            "'nodes': 2}); print('repro.cli' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

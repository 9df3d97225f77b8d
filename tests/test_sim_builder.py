"""ProgramBuilder: lowering writes the replay tape directly.

Every lowering (training, serving, collectives) emits through one
:class:`~repro.sim.ir.ProgramBuilder`, and a program built from typed
instructions gets its tape from the same builder.  These tests pin the
two directions against each other, and check that the planner's
emulations replay the tape without ever building typed instructions
while fault runs still get them for the reference interpreter.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.collectives import lower_collective, ring_all_reduce, ring_order
from repro.core.emulator import Emulator
from repro.core.plan import Action, PlanEntry, empty_plan
from repro.core.striping import build_stripe_plan
from repro.faults.spec import random_schedule
from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.hardware import dgx1_server
from repro.inference.lowering import build_serving_program
from repro.inference.workload import InferenceConfig
from repro.models import gpt_variant
from repro.sim.executor import simulate
from repro.sim.fastpath import FastInterpreter, fast_path_runs, reference_runs
from repro.sim.interpreter import Interpreter
from repro.sim.ir import (
    ALLOC,
    DROP,
    HOST,
    HOST_BOOK,
    RECORD,
    Alloc,
    Barrier,
    Drop,
    ExecOptions,
    InstructionProgram,
    ProgramBuilder,
    ProgramTape,
    Record,
    decode_effects,
    encode_effects,
)
from repro.sim.lowering import Lowering
from repro.units import GiB, MiB

from tests.conftest import small_server, tiny_job
from tests.test_fastpath_equivalence import result_fingerprint

# (kind, stage) -> (action, tier): every memory-saving lowering path.
_MIXED = {
    (TensorKind.ACTIVATION, 0): (Action.CPU_SWAP, "nvme"),
    (TensorKind.ACTIVATION, 1): (Action.RECOMPUTE, "host"),
    (TensorKind.ACTIVATION, 2): (Action.D2D_SWAP, "host"),
    (TensorKind.ACTIVATION, 3): (Action.CPU_SWAP, "host"),
    (TensorKind.OPTIMIZER_STATE, 0): (Action.CPU_SWAP, "nvme"),
    (TensorKind.OPTIMIZER_STATE, 1): (Action.D2D_SWAP, "host"),
    (TensorKind.OPTIMIZER_STATE, 2): (Action.CPU_SWAP, "host"),
    (TensorKind.STASHED_PARAMS, 0): (Action.D2D_SWAP, "host"),
    (TensorKind.STASHED_PARAMS, 1): (Action.CPU_SWAP, "host"),
}


def _mixed_plan(job):
    """A plan exercising swap (host and NVMe tiers), D2D and recompute."""
    plan = empty_plan(job.n_stages)
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    for cls in classes:
        choice = _MIXED.get((cls.kind, cls.stage))
        if choice is None:
            continue
        action, tier = choice
        stripe = None
        if action is Action.D2D_SWAP:
            budgets = {dev: GiB for dev in range(job.n_stages) if dev != cls.stage}
            stripe = build_stripe_plan(job.server.topology, cls.stage, budgets, cls.size)
        plan.assign(PlanEntry(cls=cls, action=action, stripe=stripe, tier=tier))
    return plan


def _training_program(strict=False, faults=None):
    job = tiny_job(system="pipedream", microbatches_per_minibatch=1, n_minibatches=4)
    options = ExecOptions(strict=strict, faults=faults)
    return Lowering(job, options).lower(_mixed_plan(job))


def _serving_program():
    config = InferenceConfig(n_requests=24, seed=3, arrival_rate=32.0,
                             max_batch=6, kv_pool_mib=199, kv_swap="d2d", pp=2)
    program, tape, _cost = build_serving_program(gpt_variant(5.3), dgx1_server(),
                                                 config)
    assert tape.swaps, "the episode must spill KV to exercise swap effects"
    return program


def _collective_program():
    server = small_server()
    schedule = ring_all_reduce(ring_order(server.topology, range(4)), 8 * MiB + 3)
    return lower_collective(server, schedule, ExecOptions(record_trace=True))


def _rebuilt(program: InstructionProgram) -> InstructionProgram:
    """The same program, built from its typed instructions."""
    return InstructionProgram(
        job=program.job,
        plan=program.plan,
        options=program.options,
        instructions=program.instructions,
        edges=program.edges,
        static_effects=program.static_effects,
        stream_order=program.stream_order,
    )


@pytest.mark.parametrize("make", [_training_program, _serving_program,
                                  _collective_program])
def test_instructions_round_trip_to_the_same_tape(make):
    program = make()
    assert "instructions" not in vars(program)  # lowered straight to tape
    rebuilt = _rebuilt(program)
    for column in ProgramTape.__slots__:
        assert getattr(rebuilt.tape, column) == getattr(program.tape, column), column
    assert rebuilt.instructions is program.instructions
    assert rebuilt.tape.materialize() == program.instructions
    assert rebuilt.stream_order == program.stream_order
    assert result_fingerprint(FastInterpreter(rebuilt).run()) == \
        result_fingerprint(FastInterpreter(program).run())


def test_mixed_plan_lowers_every_instruction_type():
    counts = _training_program().counts_by_type()
    for kind in ("Compute", "Recompute", "OptimStep", "SwapOut", "SwapIn",
                 "NvmeWrite", "NvmeRead", "P2PSend", "P2PRecv", "Barrier"):
        assert counts.get(kind, 0) > 0, kind


def test_effect_encoding_round_trips():
    effects = (Alloc(HOST, 5, "a"), Drop(2, 5, "a"), Record("fwd", 1, 3, 7),
               Record("opt", 0, 1))
    ops = encode_effects(effects)
    assert ops == [(ALLOC, HOST_BOOK, 5, "a"), (DROP, 2, 5, "a"),
                   (RECORD, "fwd", 1, 3, 7), (RECORD, "opt", 0, 1, -1)]
    assert decode_effects(ops) == effects
    assert encode_effects(()) is None and decode_effects(None) == ()


def test_builder_columns_track_emission():
    builder = ProgramBuilder()
    builder.stream(("idle", 0), "fifo")
    a = builder.emit(Barrier, "a", ("s", 0), "pool", 1.0, 0)
    b = builder.emit(Barrier, "b", ("s", 0), "pool", 2.0, 0, deps=(a,),
                     done=[(RECORD, "x", 0, 0, -1)])
    c = builder.emit(Barrier, "c", ("t", 0), "fifo", 3.0, HOST)
    builder.edge(c, a)
    builder.add_start(a, (ALLOC, 0, 8, "t"))
    builder.add_done(b, (DROP, 0, 8, "t"))
    builder.set_duration(c, 0.5)
    tape = builder.seal()
    assert tape.n == 3
    assert tape.stream_keys == [("idle", 0), ("s", 0), ("t", 0)]
    assert tape.stream_modes == ["fifo", "pool", "fifo"]
    assert tape.members == [[], [a, b], [c]]
    assert tape.pos_in_stream == [0, 1, 0]
    assert tape.dep_count == [0, 1, 1]
    assert tape.dependents == [[b, c], [], []]
    assert builder.edges == [(b, a), (c, a)]
    assert tape.start_effects == [[(ALLOC, 0, 8, "t")], None, None]
    assert tape.done_effects == [None, [(RECORD, "x", 0, 0, -1), (DROP, 0, 8, "t")],
                                 None]
    assert tape.durations == [1.0, 2.0, 0.5]
    assert tape.devices == [0, 0, HOST]


def test_emulation_replays_the_tape_without_typed_instructions(monkeypatch):
    """The planner's emulator never builds a typed instruction, and the
    fast path replays the lowering's own tape object."""
    program = _training_program()
    assert FastInterpreter(program).tape is program.tape

    def refuse(self):
        raise AssertionError("emulation materialized typed instructions")

    monkeypatch.setattr(ProgramTape, "materialize", refuse)
    job = tiny_job(system="pipedream", microbatches_per_minibatch=1, n_minibatches=4)
    before = fast_path_runs()
    report = Emulator(job).run(_mixed_plan(job))
    assert fast_path_runs() == before + 1
    assert report.result.ok and report.minibatch_time > 0


def test_fault_run_replays_materialized_instructions_on_reference():
    """A faulted run dispatches to the reference interpreter, which
    reads the typed instructions rebuilt from the tape; a program built
    back from them replays identically."""
    job = tiny_job(system="pipedream", microbatches_per_minibatch=1, n_minibatches=4)
    horizon = simulate(job, _mixed_plan(job), strict=False).makespan
    faults = random_schedule(seed=7, n_devices=job.server.n_gpus, horizon=horizon)
    assert not faults.is_empty
    before = reference_runs()
    result = simulate(job, _mixed_plan(job), strict=False, faults=faults)
    assert reference_runs() == before + 1
    program = _training_program(faults=faults)
    again = Interpreter(dataclasses.replace(program)).run()
    assert result_fingerprint(again) == result_fingerprint(result)
    assert again.resilience == result.resilience

"""Emulator feedback tests (Fig. 5 step 5)."""

import weakref

import pytest

from repro.core.emulator import Emulator
from repro.core.plan import Action, PlanEntry, empty_plan
from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.runtime.task import trace_digest
from repro.sim.fastpath import fast_path_runs, reference_runs
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model


def _pressured_job():
    return tiny_job(
        server=small_server(gpu_memory=48 * MiB),
        model=tiny_model(n_layers=10),
        microbatch_size=8,
        microbatches_per_minibatch=6,
    )


def test_reports_overflow_for_empty_plan():
    job = _pressured_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    assert not report.fits
    assert 0 in report.overflowed_devices
    assert report.minibatch_time > 0


def test_reports_fit_when_capacity_suffices():
    job = tiny_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    assert report.fits
    assert report.overflowed_devices == []


def test_saved_by_action_propagates():
    job = _pressured_job()
    plan = empty_plan(job.n_stages)
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    cls = next(c for c in classes if c.kind is TensorKind.ACTIVATION and c.stage == 0)
    plan.assign(PlanEntry(cls=cls, action=Action.RECOMPUTE))
    report = Emulator(job).run(plan)
    assert report.saved_by_action[Action.RECOMPUTE] == cls.peak_bytes


def test_slowdown_vs_baseline():
    job = _pressured_job()
    emulator = Emulator(job)
    base = emulator.run(empty_plan(job.n_stages))
    assert base.slowdown_vs(base.minibatch_time) == pytest.approx(0.0)
    assert base.slowdown_vs(base.minibatch_time / 2) == pytest.approx(1.0)
    assert base.slowdown_vs(0.0) == 0.0


def test_device_peaks_cover_all_gpus():
    job = _pressured_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    assert len(report.device_peaks) == job.server.n_gpus
    assert all(peak > 0 for peak in report.device_peaks)


def test_non_strict_overflow_is_reported_not_fatal():
    # The emulator measures overflow instead of OOMing: the run must
    # complete (ok, trace recorded) with peaks above capacity.
    job = _pressured_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    assert report.result.ok
    assert report.result.oom is None
    assert report.result.trace.events
    capacity = job.server.gpu_memory
    for device in report.overflowed_devices:
        assert report.device_peaks[device] > capacity


def test_overflowed_devices_match_peaks():
    job = _pressured_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    capacity = job.server.gpu_memory
    expected = [d for d, peak in enumerate(report.device_peaks) if peak > capacity]
    assert report.overflowed_devices == expected


def test_fits_tracks_overflow_list():
    job = _pressured_job()
    emulator = Emulator(job)
    overflowing = emulator.run(empty_plan(job.n_stages))
    assert overflowing.fits == (not overflowing.overflowed_devices)
    roomy = Emulator(tiny_job()).run(empty_plan(4))
    assert roomy.fits and roomy.overflowed_devices == []


def test_slowdown_vs_is_signed():
    job = _pressured_job()
    report = Emulator(job).run(empty_plan(job.n_stages))
    faster_baseline = report.minibatch_time / 2
    slower_baseline = report.minibatch_time * 2
    assert report.slowdown_vs(faster_baseline) == pytest.approx(1.0)
    assert report.slowdown_vs(slower_baseline) == pytest.approx(-0.5)


def test_one_emulator_reuses_its_lowering_skeleton():
    from repro.sim.lowering import skeleton_build_count

    job = _pressured_job()
    before = skeleton_build_count()
    emulator = Emulator(job)
    emulator.run(empty_plan(job.n_stages))
    emulator.run(empty_plan(job.n_stages))
    assert skeleton_build_count() == before + 1
    assert emulator.n_emulations == 2


def _recompute_plan(job):
    plan = empty_plan(job.n_stages)
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    for cls in classes:
        if cls.kind is TensorKind.ACTIVATION and cls.stage == 0:
            plan.assign(PlanEntry(cls=cls, action=Action.RECOMPUTE))
    return plan


def test_each_run_is_one_fast_path_replay():
    job = _pressured_job()
    plan = _recompute_plan(job)
    emulator = Emulator(job)
    reports = []
    for _ in range(2):
        fast, reference = fast_path_runs(), reference_runs()
        reports.append(emulator.run(plan))
        assert fast_path_runs() == fast + 1
        assert reference_runs() == reference
    first, second = reports
    assert first.minibatch_time.hex() == second.minibatch_time.hex()
    assert first.device_peaks == second.device_peaks
    assert trace_digest(first.result.trace) == trace_digest(second.result.trace)


def test_nothing_outlives_a_run_but_the_report():
    # The lowered program must be freed by reference counting as soon
    # as run() returns: no candidate's program, tape or engine state
    # is kept for the next one.
    job = _pressured_job()
    emulator = Emulator(job)
    lower = emulator._lowering.lower
    programs = []

    def lower_and_watch(plan):
        program = lower(plan)
        programs.append(weakref.ref(program))
        return program

    emulator._lowering.lower = lower_and_watch
    report = emulator.run(_recompute_plan(job))
    assert report.result.ok
    assert len(programs) == 1
    assert programs[0]() is None

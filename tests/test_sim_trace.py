"""Trace recording and timeline rendering tests."""

from repro.sim.trace import Trace, TraceEvent


def _event(name="t", kind="fwd", device=0, mb=0, start=0.0, end=1.0, layer=-1):
    return TraceEvent(name=name, kind=kind, device=device, microbatch=mb,
                      start=start, end=end, layer=layer)


def test_record_updates_makespan():
    trace = Trace()
    trace.record(_event(end=2.0))
    trace.record(_event(start=2.0, end=5.0))
    assert trace.makespan == 5.0


def test_by_kind_and_by_device():
    trace = Trace()
    trace.record(_event(kind="fwd", device=0))
    trace.record(_event(kind="bwd", device=1))
    assert len(trace.by_kind("fwd")) == 1
    assert len(trace.by_device(1)) == 1


def test_find_by_name():
    trace = Trace()
    trace.record(_event(name="special"))
    assert trace.find("special") is not None
    assert trace.find("missing") is None


def test_total_time():
    trace = Trace()
    trace.record(_event(kind="swap_out", start=0.0, end=1.5))
    trace.record(_event(kind="swap_out", start=2.0, end=3.0))
    assert trace.total_time("swap_out") == 2.5


def test_duration_property():
    assert _event(start=1.0, end=3.5).duration == 2.5


def test_render_timeline_marks_microbatches():
    trace = Trace()
    trace.record(_event(kind="fwd", device=0, mb=1, start=0.0, end=1.0))
    trace.record(_event(kind="bwd", device=0, mb=1, start=1.0, end=2.0))
    art = trace.render_timeline(width=20)
    assert "gpu0" in art
    assert "1" in art


def test_render_empty_trace():
    assert Trace().render_timeline() == "(empty trace)"

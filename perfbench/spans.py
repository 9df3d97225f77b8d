"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent): the recorder keeps a stack of
open spans, so a wrapped call made inside another wrapped call gets
it as parent.  Spans stay in memory until the op ends; the harness
writes them out once, when the run ends.

Self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    # Counters attached by the wrapper's ``on_return`` hook.
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one process (single-threaded use)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_return(args, kwargs,
        result)`` may return a dict of counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
            if on_return is not None:
                span.counts = on_return(args, kwargs, result)
            return result

        return traced


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.sid: span.duration - _covered(children.get(span.sid, ()))
            for span in spans}


def by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self milliseconds, and the
    sum of every attached counter."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += span.duration * 1e3
        row["self_ms"] += selfs[span.sid] * 1e3
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def chrome_events(spans: Sequence[Span], pid: int, origin: float) -> List[Dict]:
    """Complete ("X") Chrome-trace events, microseconds from ``origin``."""
    return [{"name": s.name, "ph": "X", "pid": pid, "tid": 0,
             "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
             "args": dict(s.counts or {}, sid=s.sid, parent=s.parent)}
            for s in spans]

"""Execution traces: what ran where and when.

The trace is the simulator's equivalent of the paper's profiler
output (Figure 5, steps 1-2): per-op timestamps from which live
intervals, per-device memory curves, and timeline diagrams (Figure 1)
are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One completed task occurrence.

    ``layer`` is the model-wide layer index for per-layer compute
    events, or -1 for stage-level events (optimizer steps, swaps).
    """

    name: str
    kind: str
    device: int
    microbatch: int
    start: float
    end: float
    layer: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CounterSample:
    """One per-device memory-usage sample (for counter tracks).

    Samples live alongside — never inside — ``events``: trace digests
    hash the event list only, so counter instrumentation cannot
    perturb golden traces.
    """

    device: int
    time: float
    bytes_in_use: int


@dataclass
class Trace:
    """Ordered record of completed tasks plus simulation-wide stats."""

    events: List[TraceEvent] = field(default_factory=list)
    makespan: float = 0.0
    counters: List[CounterSample] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)
        if event.end > self.makespan:
            self.makespan = event.end

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_device(self, device: int) -> List[TraceEvent]:
        return [e for e in self.events if e.device == device]

    def find(self, name: str) -> Optional[TraceEvent]:
        for event in self.events:
            if event.name == name:
                return event
        return None

    def total_time(self, kind: str) -> float:
        return sum(e.duration for e in self.by_kind(kind))

    def render_timeline(self, width: int = 80, kinds: Tuple[str, ...] = ("fwd", "bwd")) -> str:
        """ASCII timeline in the style of the paper's Figure 1.

        Forward boxes render as the microbatch digit, backward boxes
        as the digit wrapped in dots.
        """
        if self.makespan <= 0:
            return "(empty trace)"
        scale = width / self.makespan
        lines = []
        for device in sorted({e.device for e in self.events}):
            row = [" "] * width
            for event in self.by_device(device):
                if event.kind not in kinds:
                    continue
                lo = min(width - 1, int(event.start * scale))
                hi = min(width, max(lo + 1, int(event.end * scale)))
                symbol = str(event.microbatch % 10)
                fill = symbol if event.kind == "fwd" else "."
                for col in range(lo, hi):
                    row[col] = fill
                row[lo] = symbol
            lines.append(f"gpu{device} |{''.join(row)}|")
        return "\n".join(lines)

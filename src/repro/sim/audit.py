"""Simulation audits: post-run sweeps and a live event-bus auditor.

A completed :class:`~repro.sim.interpreter.SimulationResult` carries
the full event trace and memory books; these audits verify the
invariants any correct execution must satisfy — causality between
matching forward/backward passes, swap pairing, non-overlapping
compute per device, and memory conservation.  They run in tests and
are available to users debugging custom plans.

Faulted runs (a :class:`~repro.faults.report.ResilienceReport` on the
result) get two additional invariants: no compute may start inside a
device-failure outage window, and each recovery's reload bytes must
match the state actually resident on the failed device at the instant
it died.  :class:`FaultWindowAuditor` checks the outage invariant
*live* by subscribing to the interpreter's event bus instead of
scanning the finished trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.hardware.bandwidth import transfer_time
from repro.sim.events import DeviceFailed, EventBus, InstructionStarted
from repro.sim.interpreter import SimulationResult
from repro.sim.ir import Compute, OptimStep, Recompute


@dataclass
class AuditReport:
    """Violations found by :func:`audit_simulation` (empty = clean)."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, issues) -> None:
        self.violations.extend(issues)


def audit_simulation(result: SimulationResult) -> AuditReport:
    """Run every audit against a finished simulation.

    Also accepts a serving outcome (anything with a ``simulation``
    attribute) and audits its simulation.  The end-of-run memory-book
    audit reconstructs training state from the job's stage plan, so it
    runs only when the job has one; serving jobs skip it.
    """
    result = getattr(result, "simulation", result)
    report = AuditReport()
    if not result.ok:
        report.extend(["simulation did not complete (OOM)"])
        return report
    report.extend(_audit_compute_pairing(result))
    report.extend(_audit_causality(result))
    report.extend(_audit_no_compute_overlap(result))
    report.extend(_audit_swap_pairing(result))
    if getattr(result.job, "stage_plan", None) is not None:
        report.extend(_audit_memory_books(result))
    if result.resilience is not None:
        report.extend(_audit_outage_windows(result))
        report.extend(_audit_recovery_reload(result))
    return report


class FaultWindowAuditor:
    """Live outage-window auditor for the interpreter's event bus.

    Subscribes to :class:`~repro.sim.events.DeviceFailed` and
    :class:`~repro.sim.events.InstructionStarted` and flags any
    compute-class instruction (forward/backward/recompute/optimizer)
    that begins inside a failure's synchronous-recovery window — the
    same invariant :func:`_audit_outage_windows` checks post-hoc,
    verified as the simulation unfolds.

    Usage::

        auditor = FaultWindowAuditor()
        Interpreter(program, subscribers=(auditor,)).run()
        assert auditor.ok
    """

    def __init__(self) -> None:
        self.violations: List[str] = []
        self._outages: List[Tuple[int, float, float]] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def attach(self, bus: EventBus) -> None:
        bus.subscribe(DeviceFailed, self.on_device_failed)
        bus.subscribe(InstructionStarted, self.on_instruction_started)

    def on_device_failed(self, event: DeviceFailed) -> None:
        self._outages.append((event.device, event.time, event.resume_time))

    def on_instruction_started(self, event: InstructionStarted) -> None:
        instr = event.instruction
        if not isinstance(instr, (Compute, Recompute, OptimStep)):
            return
        for device, start, resume in self._outages:
            if start - 1e-12 < event.time < resume - 1e-9:
                self.violations.append(
                    f"{instr.name} starts at {event.time:.6f} inside the "
                    f"gpu{device} outage [{start:.6f}, {resume:.6f})"
                )


def _compute_events(result: SimulationResult, kind: str):
    return [e for e in result.trace.events if e.kind == kind]


def _audit_compute_pairing(result: SimulationResult) -> List[str]:
    """Every (device, layer, microbatch) forward has one backward."""
    issues = []
    fwd = {(e.device, e.layer, e.microbatch) for e in _compute_events(result, "fwd")}
    bwd = {(e.device, e.layer, e.microbatch) for e in _compute_events(result, "bwd")}
    for key in fwd ^ bwd:
        issues.append(f"unpaired compute for (device, layer, microbatch) {key}")
    return issues


def _audit_causality(result: SimulationResult) -> List[str]:
    """A backward pass never starts before its forward pass ended."""
    issues = []
    fwd_end: Dict[Tuple[int, int, int], float] = {}
    for event in _compute_events(result, "fwd"):
        fwd_end[(event.device, event.layer, event.microbatch)] = event.end
    for event in _compute_events(result, "bwd"):
        key = (event.device, event.layer, event.microbatch)
        if key in fwd_end and event.start < fwd_end[key] - 1e-12:
            issues.append(f"backward before forward for {key}")
    return issues


def _audit_no_compute_overlap(result: SimulationResult) -> List[str]:
    """Compute events on one device never overlap (one compute stream)."""
    issues = []
    by_device: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    for event in result.trace.events:
        if event.kind in ("fwd", "bwd", "opt", "recompute"):
            by_device[event.device].append((event.start, event.end, event.name))
    for device, windows in by_device.items():
        windows.sort()
        for (s1, e1, n1), (s2, _e2, n2) in zip(windows, windows[1:]):
            if s2 < e1 - 1e-9:
                issues.append(
                    f"device {device}: compute overlap between {n1} and {n2}"
                )
    return issues


def _audit_swap_pairing(result: SimulationResult) -> List[str]:
    """Swap-outs and swap-ins balance per device."""
    issues = []
    outs: Dict[int, int] = defaultdict(int)
    ins: Dict[int, int] = defaultdict(int)
    for event in result.trace.events:
        if event.kind == "swap_out":
            outs[event.device] += 1
        elif event.kind == "swap_in":
            ins[event.device] += 1
    for device in set(outs) | set(ins):
        if outs[device] != ins[device]:
            issues.append(
                f"device {device}: {outs[device]} swap-outs vs {ins[device]} swap-ins"
            )
    return issues


def _audit_outage_windows(result: SimulationResult) -> List[str]:
    """No compute starts inside a device-failure outage window.

    A failure stalls the whole pipeline (synchronous checkpoint
    restore), so between the failure instant and the recorded resume
    time no task on *any* device may begin — the dead device most of
    all.
    """
    issues = []
    for failure in result.resilience.failures:
        for event in result.trace.events:
            if event.kind not in ("fwd", "bwd", "opt", "recompute"):
                continue
            if failure.time - 1e-12 < event.start < failure.resume_time - 1e-9:
                issues.append(
                    f"{event.name} starts at {event.start:.6f} inside the "
                    f"gpu{failure.device} outage "
                    f"[{failure.time:.6f}, {failure.resume_time:.6f})"
                )
    return issues


def _audit_recovery_reload(result: SimulationResult) -> List[str]:
    """Recovery reload matches the state resident when the device died."""
    issues = []
    for failure in result.resilience.failures:
        book = result.memory.gpu(failure.device)
        resident = sum(book.composition_at(failure.time).values())
        if failure.reload_bytes != resident:
            issues.append(
                f"gpu{failure.device} recovery reloads {failure.reload_bytes} "
                f"bytes but {resident} were resident at failure time "
                f"{failure.time:.6f}"
            )
        expected = transfer_time(
            failure.reload_bytes, result.job.server.pcie, lanes=1
        )
        if abs(failure.reload_seconds - expected) > 1e-9:
            issues.append(
                f"gpu{failure.device} reload time {failure.reload_seconds:.9f}s "
                f"does not match PCIe transfer model ({expected:.9f}s)"
            )
    return issues


def _audit_memory_books(result: SimulationResult) -> List[str]:
    """At the end only static model state remains resident."""
    issues = []
    job = result.job
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    expected: Dict[int, int] = defaultdict(int)
    for cls in classes:
        device = result.plan.device_of(cls.stage)
        action = result.plan.action_for(cls)
        if cls.kind is TensorKind.WORKING_STATE:
            expected[device] += cls.peak_bytes
        elif cls.kind is TensorKind.OPTIMIZER_STATE:
            if action.value == "none":
                expected[device] += cls.peak_bytes
            elif action.value == "d2d-swap":
                stripe = result.plan.entry_for(cls).stripe
                for importer in stripe.importers:
                    expected[importer] += stripe.bytes_to(importer)
    for device in range(job.server.n_gpus):
        actual = result.memory.gpu(device).in_use
        if actual != expected[device]:
            issues.append(
                f"device {device}: {actual} bytes resident at end, "
                f"expected {expected[device]} (leak or double-free)"
            )
    return issues

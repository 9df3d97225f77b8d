"""Inject a fault schedule into a running simulation.

The :class:`FaultInjector` arms engine control callbacks for every
fault in a :class:`~repro.faults.spec.FaultSchedule`:

* Windowed faults (slowdown, link degrade, NVMe stall) open and
  close by changing the delivery *rate* of the affected streams;
  the engine rescales the remaining work of whatever is running, so
  a window opening mid-kernel charges exactly the slowed portion.
  Overlapping windows on one resource compose multiplicatively and
  unwind exactly (the rate is recomputed from the set of active
  factors, never by repeated division).
* Device failures model synchronous checkpoint-restore: the whole
  pipeline stalls for restart latency + state reload over PCIe +
  re-execution of work lost since the last completed minibatch
  (checkpoints are taken at minibatch boundaries).  The stall is a
  pure shift — no task starts inside the outage window — which is
  what :func:`repro.sim.audit.audit_simulation` verifies.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.faults.report import FailureRecord, ResilienceReport
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.hardware.bandwidth import transfer_time
from repro.sim.events import DeviceFailed, FaultWindowClosed, FaultWindowOpened


class FaultInjector:
    """Wires one fault schedule into one simulation's engine.

    Failures and fault windows are published on the event ``bus``
    (:class:`~repro.sim.events.DeviceFailed`,
    :class:`~repro.sim.events.FaultWindowOpened`/``Closed``); trace
    recording is left to bus subscribers.  ``trace`` is only read, to
    find the last checkpoint a failure rolls back to.
    """

    def __init__(self, schedule: FaultSchedule, engine, streams, job,
                 memory, trace, bus):
        self.schedule = schedule
        self.engine = engine
        self.streams = streams
        self.job = job
        self.memory = memory
        self.trace = trace
        self.bus = bus
        self.failures: List[FailureRecord] = []
        # Active window factors per stream key; the rate applied is
        # their product, so unwinding a window restores exactly 1.0.
        self._active: Dict[Hashable, List[float]] = {}
        # End of the in-progress recovery; a failure landing inside
        # it is handled once the machine is back up.
        self._outage_until = 0.0

    # -- arming ----------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault's control callbacks on the engine."""
        for fault in self.schedule:
            if fault.kind is FaultKind.DEVICE_FAIL:
                self.engine.schedule_callback(
                    fault.start, lambda f=fault: self._on_fail(f)
                )
            else:
                keys = self._stream_keys(fault)
                self.engine.schedule_callback(
                    fault.start, lambda f=fault, k=keys: self._open_window(f, k)
                )
                self.engine.schedule_callback(
                    fault.end, lambda f=fault, k=keys: self._close_window(f, k)
                )

    def _stream_keys(self, fault: FaultSpec) -> List[Hashable]:
        """Stream keys a windowed fault throttles."""
        if fault.kind is FaultKind.DEVICE_SLOWDOWN:
            return [("compute", fault.device), ("optstep", fault.device)]
        if fault.kind is FaultKind.NVME_STALL:
            return [("nvme", "read"), ("nvme", "write")]
        # Link degrade: the NVLink lanes between the pair, or the
        # device's PCIe channels when no peer is named.  A pair with
        # no direct lane routes its transfers through host memory, so
        # degrade the PCIe staging path instead.
        if fault.peer is None:
            return [("pcie_d2h", fault.device), ("pcie_h2d", fault.device)]
        topology = self.job.server.topology
        if topology.lanes(fault.device, fault.peer) > 0:
            return (topology.lane_channels(fault.device, fault.peer)
                    + topology.lane_channels(fault.peer, fault.device))
        return [("pcie_d2h", fault.device), ("pcie_d2h", fault.peer)]

    # -- windowed faults -------------------------------------------------

    def _open_window(self, fault: FaultSpec, keys: List[Hashable]) -> None:
        for key in keys:
            self._active.setdefault(key, []).append(fault.factor)
            self._apply_rate(key)
        self.bus.publish(
            FaultWindowOpened(
                kind=fault.kind.value,
                device=fault.device,
                factor=fault.factor,
                time=self.engine.now,
                stream_keys=tuple(keys),
            )
        )

    def _close_window(self, fault: FaultSpec, keys: List[Hashable]) -> None:
        for key in keys:
            factors = self._active.get(key, [])
            if fault.factor in factors:
                factors.remove(fault.factor)
            self._apply_rate(key)
        self.bus.publish(
            FaultWindowClosed(
                kind=fault.kind.value,
                device=fault.device,
                factor=fault.factor,
                time=self.engine.now,
                stream_keys=tuple(keys),
            )
        )

    def _apply_rate(self, key: Hashable) -> None:
        if key not in self.streams:
            return  # resource never materialized in this run
        rate = 1.0
        for factor in self._active.get(key, ()):
            rate *= factor
        self.engine.set_stream_rate(self.streams.get(key), rate)

    # -- device failure --------------------------------------------------

    def _on_fail(self, fault: FaultSpec) -> None:
        if not self.engine.work_remaining:
            return  # training already finished; nothing to recover
        now = self.engine.now
        if now < self._outage_until:
            # The server is already down restoring; this failure gets
            # its own recovery once the current one completes, so
            # outage windows never overlap.
            self.engine.schedule_callback(
                self._outage_until, lambda: self._on_fail(fault)
            )
            return
        checkpoint = self._last_checkpoint_time()
        lost = max(0.0, now - checkpoint)
        reload_bytes = self.memory.gpu(fault.device).in_use
        reload_seconds = transfer_time(reload_bytes, self.job.server.pcie, lanes=1)
        recovery = fault.restart_latency + reload_seconds + lost
        self._outage_until = now + recovery
        self.engine.stall_all(recovery)
        record = FailureRecord(
            device=fault.device,
            time=now,
            lost_seconds=lost,
            restart_latency=fault.restart_latency,
            reload_bytes=reload_bytes,
            reload_seconds=reload_seconds,
            resume_time=now + recovery,
        )
        self.failures.append(record)
        # TraceRecorder (attached iff record_trace) turns this into
        # the recovery trace event.
        self.bus.publish(
            DeviceFailed(
                device=fault.device,
                time=now,
                resume_time=now + recovery,
                lost_seconds=lost,
                reload_bytes=reload_bytes,
                reload_seconds=reload_seconds,
            )
        )

    def _last_checkpoint_time(self) -> float:
        """End of the last minibatch every stage finished optimizing.

        Checkpoints are modelled at minibatch boundaries: minibatch
        ``k`` is durable once all stages completed its optimizer
        step; work past that instant is lost on failure.
        """
        n_stages = self.job.n_stages
        ends: Dict[int, List[float]] = {}
        for event in self.trace.events:
            if event.kind == "opt":
                ends.setdefault(event.microbatch, []).append(event.end)
        checkpoint = 0.0
        for _minibatch, times in ends.items():
            if len(times) >= n_stages:
                checkpoint = max(checkpoint, max(times))
        return checkpoint

    # -- reporting -------------------------------------------------------

    def build_report(self, makespan: float) -> ResilienceReport:
        samples = self.job.samples_per_minibatch * self.job.n_minibatches
        return ResilienceReport(
            schedule=self.schedule,
            makespan=makespan,
            samples=samples,
            failures=list(self.failures),
        )

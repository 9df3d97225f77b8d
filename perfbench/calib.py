"""Machine-speed calibration, sampled while the measured work runs.

Host timing on a shared VM drifts with contention from other tenants,
by more than the bounds the benchmark sets, and the drift is per vCPU
and changes within a second.  A probe run before and after an op, or
on the other vCPU, does not see what the op saw.  So the probe runs
while the work runs, on its CPU:

* in an op interpreter, ``Sampler`` runs it from a SIGALRM handler
  every ``INTERVAL_S`` of wall time, between two of the op's bytecodes;
* for the sweep server, whose simulations run in a pool worker the
  benchmark cannot enter, ``Prober`` runs it in a process of its own,
  pinned to the server's CPU.  (The same process pinned beside an op
  interpreter tracked the DGX-1 op worse than no probe at all; see
  README.md.)

The probe has two halves, because the ops feel contention in two
ways.  A compute loop over a small dict and heap tracks the DGX-1
mapping search (correlation 0.82 with its op time across ops, against
0.50 for the memory half); scattered reads and writes over an 8 MiB
buffer, beyond the private caches, track the memory-heavy DGX-2
planner (0.94 against 0.50).
"""

from __future__ import annotations

import array
import heapq
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

# Mean duration of one probe on the reference host (2-vCPU x86-64 VM,
# CPython 3.11), so scaled times read as reference-host times.
REFERENCE_S = 0.0026
INTERVAL_S = 0.05
_COMPUTE_STEPS = 3000
_MEMORY_STEPS = 1500
_SLOTS = 1 << 21
BUFFER_MIB = _SLOTS * 4 / 2 ** 20


def _compute() -> int:
    table = {}
    heap: List[tuple] = []
    acc = 0
    for i in range(_COMPUTE_STEPS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            heapq.heappush(heap, (float(key) * 0.5, i))
        elif heap and i & 7 == 3:
            acc += heapq.heappop(heap)[1]
        acc ^= key
    return acc + len(table)


def _memory(buf: array.array) -> int:
    mask = len(buf) - 1
    acc = 0
    for i in range(_MEMORY_STEPS):
        slot = (i * 2654435761) & mask
        acc += buf[slot]
        buf[(slot + 40503) & mask] = i & 127
    return acc


def new_buffer() -> array.array:
    """The memory half's scratch buffer.  Filled by repetition, so all
    of it is resident at once and no second copy ever exists: peak RSS
    grows by exactly ``BUFFER_MIB``."""
    return array.array("i", [0]) * _SLOTS


def probe_once(buf: array.array) -> float:
    start = time.perf_counter()
    _compute()
    _memory(buf)
    return time.perf_counter() - start


class Sampler:
    """Runs the probe every ``INTERVAL_S`` in the calling thread (which
    must be the main thread) while active."""

    def __init__(self, buf: array.array):
        self.buf = buf
        self.samples: List[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_once(self.buf))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def sample_until_eof() -> List[float]:
    """Probe every ``INTERVAL_S`` until standard input closes."""
    buf = new_buffer()
    samples: List[float] = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(probe_once(buf))
    return samples


def pin(proc: subprocess.Popen, cpu: int) -> None:
    """Pins a just-launched child, and whatever it forks from then on,
    to ``cpu``."""
    os.sched_setaffinity(proc.pid, {cpu})


class Prober:
    """``calib.py`` as a process of its own, pinned to ``cpu``."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        pin(self.proc, cpu)

    def stop(self) -> List[float]:
        self.proc.stdin.close()
        samples = json.loads(self.proc.stdout.read() or "[]")
        self.proc.stdout.close()
        self.proc.wait()
        return samples


def speed_factor(durations: Sequence[float]) -> float:
    """Mean probe time over the reference: >1 means a slow host.  Host
    times divided by it read as reference-host times.

    The mean, not the median: an op's duration integrates the host's
    speed over its whole run, slow stretches included."""
    return statistics.fmean(durations) / REFERENCE_S


if __name__ == "__main__":
    # Prints its samples as JSON when standard input closes.
    print(json.dumps(sample_until_eof()))

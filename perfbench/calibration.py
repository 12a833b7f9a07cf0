"""Host speed probe: a fixed reference slice timed at regular wall intervals.

The benchmark's host is a shared VM whose CPU speed drifts by up to 2x over
seconds and minutes, and process CPU time drifts with wall time. A
``SpeedProbe`` measures that drift while a workload runs. A wall-clock
timer interrupts the workload every ``interval`` seconds, and the signal
handler times one reference slice: a fixed amount of work in the same style
as the sailx numpy fallback (small-array numpy calls from a Python loop).
The slice touches no sailx code and no global random state, so the program
can neither speed it up nor be changed by it.

``slowdown()`` is the slice time over ``REFERENCE_SLICE_S``, so 1.0 is the
sizing host at its median speed and 1.3 is a host 30 % slower. A phase that
took ``t`` wall seconds took ``t / slowdown()`` seconds of the sizing host.
The time spent in the handler is counted in ``overhead_s`` so that callers
can take it out of their own timings.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median slice time on the sizing host (2-vCPU shared VM, numpy fallback)
REFERENCE_SLICE_S = 0.0060
SLICE_STEPS = 400


def reference_slice(steps: int = SLICE_STEPS) -> float:
    """Fixed work: a quaternion integrated with 4-vector numpy calls."""
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([0.0, 0.3, -0.2, 0.1])
    acc = 0.0
    for i in range(steps):
        dq = 0.5 * np.array([-q[1:] @ w[1:],
                             q[0] * w[1] + q[2] * w[3] - q[3] * w[2],
                             q[0] * w[2] + q[3] * w[1] - q[1] * w[3],
                             q[0] * w[3] + q[1] * w[2] - q[2] * w[1]])
        q = q + 0.002 * dq
        q = q / np.sqrt(q @ q)
        acc += float(np.clip(q[0], -1.0, 1.0)) + (i % 3)
    return acc


class SpeedProbe:
    """Times ``reference_slice`` every ``interval`` wall seconds while on."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_slice()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.overhead_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, first: int = 0) -> float:
        """Host slowdown over samples[first:], against REFERENCE_SLICE_S.

        The host's speed changes faster than the sampling interval, so each
        sample stands for its interval and the slowdowns are averaged
        harmonically: the work done in an interval is its length over the
        slowdown in it.
        """
        samples = self.samples[first:]
        if not samples:
            reference_slice()  # warm
            start = time.perf_counter()
            reference_slice()
            samples = [time.perf_counter() - start]
        return 1.0 / statistics.fmean(REFERENCE_SLICE_S / t for t in samples)

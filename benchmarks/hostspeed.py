"""
Host-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed swings by a
factor of up to two within seconds and drifts over minutes; CPU time swings
alike, so the cause is the host, not preemption.  While the benchmark
measures, a timer signal every ``INTERVAL_S`` runs a short fixed piece of
interpreter work, the probe, and records how long it took.  An interval,
such as one operation, is then corrected to a reference host speed:

    corrected = (measured - probe time inside it) * mean(REF_PROBE_S / probe time)

The mean is over the probes taken while the interval ran, or, for an
interval too short to hold one, over those within ``WINDOW_S`` of it.  Work done at speed ``s``
takes ``measured = work / s``, and the probe's time is ``c / s``, so the
mean of the probe's speed relative to the reference, sampled evenly in
time, turns measured seconds into seconds at the reference speed.
``REF_PROBE_S`` is a fixed constant, the same for every commit, so the
corrected times of a parent and a change compare directly.  It is about
the probe's median time on a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz,
Python 3.11.7), so there corrected seconds read close to measured ones.

The probe runs in the benchmark's own process, between two bytecodes of
whatever runs then, and costs about 1% of the time.  The correction
assumes that the program leaves nothing running beside the benchmark: work
left running in the background would slow the probe as well as the
operations, and the correction would hide it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_PROBE_S = 0.00015  # probe time at the reference speed
INTERVAL_S = 0.02  # time between two probes
WINDOW_S = 0.5  # for an interval that holds no probe, the probes this close to it count
# The probe's inputs: 32 permutations of 1..8, each twice, for a small stack
# machine of its own.
_SEQUENCES = tuple(
    tuple((a * i + b) % 8 + 1 for i in range(8)) for a in (1, 3, 5, 7) for b in range(8)) * 2


def _pops(pending: int, top: int, second: int) -> bool:
    v = (pending, top, second)
    return v[1] < v[0] < v[2]


def probe() -> float:
    """
    CPU seconds one fixed piece of interpreter work takes now.  The work is
    like the benchmark's: calls of a small function, list pushes and pops,
    tuple building.  It uses no code of the program under test, so a change
    to the program cannot change the probe.  CPU time, not wall time, so that
    a process the benchmark waits for, running on the same core, does not
    count as a slow host.
    """
    t0 = time.thread_time()
    for seq in _SEQUENCES:
        stack: list[int] = []
        out: list[int] = []
        for x in seq:
            while len(stack) >= 2 and _pops(x, stack[-1], stack[-2]):
                out.append(stack.pop())
            stack.append(x)
        while stack:
            out.append(stack.pop())
        tuple(out)
    return time.thread_time() - t0


class HostSpeed:
    """
    Probes taken on a timer while the benchmark measures, and the correction
    they give.  Use as a context manager around the measured code; intervals
    are corrected afterwards.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each probe's start, ascending
        self.ends: list[float] = []  # perf_counter at each probe's end
        self.took: list[float] = []  # each probe's CPU seconds
        self._previous = None
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        took = probe()
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self.took.append(took)
        self._busy = False

    def correct(self, start: float, end: float) -> float:
        """The interval's length, without probes inside it, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]) if e <= end)
        near = self.took[lo:hi]
        if not near:
            near_lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            near_hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            near = self.took[near_lo:near_hi]
        if not near:
            raise RuntimeError("no host-speed probe near the interval")
        return (end - start - inside) * statistics.fmean(REF_PROBE_S / t for t in near)

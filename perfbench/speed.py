"""Host-speed probe for the timed runs.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10-40% over seconds to minutes as other tenants load it. That drift moves
every op alike, so a timed run measures the host as much as earlkit. The
probe measures the drift instead: a timer signal runs a fixed loop of small
numpy calls and interpreter work (the mix earlkit's ops are made of) every
``INTERVAL_S`` seconds of wall time, in the main thread, between ops and
inside them. Each call's times are then

    (wall time - probe time inside the call) * NOMINAL_S / median probe time

over the probes around the call: seconds at the host speed at which the
probe takes NOMINAL_S. At that speed the scaled time is the wall time; the
unscaled wall times are kept in the report beside them.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
# the probe's time on a lightly loaded 2-vCPU VM (Python 3.11, numpy 2.4,
# OpenBLAS on 1 thread); its fastest runs there take 6.4 ms, its median under
# load 7-10 ms
NOMINAL_S = 0.007
# the fewest probes a call's speed is taken from
MIN_PROBES = 9


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((500, 10))
        self._b = rng.standard_normal(10)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def work(self) -> float:
        """The fixed probe loop."""
        s = 0.0
        for _ in range(100):
            x = self._a @ self._b
            s += float(np.log1p(np.exp(-np.abs(x))).sum())
            for j in range(1000):
                s += j * 0.5
        return s

    def _timed(self) -> None:
        t0 = perf_counter()
        self.work()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a probe that overran the interval; skip this tick
            return
        self._busy = True
        try:
            self._timed()
        finally:
            self._busy = False

    def sample(self, n: int) -> None:
        """Run the probe n times now, after two untimed warm-up runs."""
        for _ in range(2):
            self.work()
        for _ in range(n):
            self._timed()

    def start(self) -> None:
        """Run the probe on a timer from now until stop()."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_within(self, t0: float, t1: float) -> float:
        """Probe time that overlaps [t0, t1]."""
        i = bisect_left(self.ends, t0)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < t1:
            total += max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0))
            i += 1
        return total

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median probe time around [t0, t1]: the probes
        inside it, or the MIN_PROBES nearest its middle if fewer."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        if hi - lo < MIN_PROBES:
            mid = bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = min(len(self.starts), lo + MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("the speed probe has not run yet")
        return NOMINAL_S / statistics.median(self.ends[k] - self.starts[k] for k in range(lo, hi))

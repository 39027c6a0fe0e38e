"""Machine-speed correction for timings taken on a shared machine.

On a small shared VM, neighbour load changes how fast the same Python code
runs by up to 2x, in phases lasting seconds to minutes, so raw times of
identical work spread by 40-50% between runs however long each run is.
`SpeedClock` samples that speed while the workload runs: a SIGALRM timer
interrupts the process every PERIOD_S and runs a fixed probe, a frozen
kernel with the profile of brext's hot paths (named tuples, small method
calls, tuple indexing, dict lookups), which nothing in brext can change.
`ref_s(a, b)` converts a raw perf_counter interval into reference seconds:
the time the work between a and b would take when the probe runs in
REF_PROBE_S, with the probes' own time taken out.  A brext change that makes
its work faster or slower moves reference seconds exactly as it moves raw
seconds; a change in machine speed moves both the work and the probe, and
cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from collections import namedtuple
from time import perf_counter

PERIOD_S = 0.05
REF_PROBE_S = 460e-6  # probe time on the 2-core reference machine when nothing contends
SMOOTH = 5  # probes per running median

_P = namedtuple("_P", "a b c")


class _Map:
    def __init__(self, m):
        self.m = m

    def __call__(self, x):
        if not 0 <= x < len(self.m):
            raise IndexError(x)
        return self.m[x]


_MAPS = [_Map(tuple(x * k % 12 for x in range(12))) for k in range(1, 8)]
_TABLE = {(i, j): (i + j) % 12 for i in range(12) for j in range(12)}


def probe() -> list:
    """Fixed work whose duration tracks the machine's current speed."""
    out = []
    for n in range(250):
        p = _P(n % 12, _MAPS[n % 7](n % 12), n * 5 % 12)
        v = _TABLE[(p.b, p.c)]
        out.append(_P(v, min(p.a, v), max(p.b, v)))
    return out


class SpeedClock:
    """Context manager that probes the machine speed every PERIOD_S."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe
        self._prev = None
        self._marks = None
        self._running = False

    def _sample(self, *_):
        t0 = perf_counter()
        probe()
        self.probes.append((t0, perf_counter()))

    def __enter__(self):
        self._sample()
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev)
        self._sample()
        self._running = False
        return False

    def _build(self):
        """Reference time at the end of each probe; gaps between probes are
        converted at the running-median probe speed around them."""
        durations = [e - s for s, e in self.probes]
        ends = [e for _, e in self.probes]
        ref = [0.0]
        rates = []
        for k in range(len(self.probes)):
            lo = max(0, k - SMOOTH // 2)
            rates.append(REF_PROBE_S / statistics.median(durations[lo:lo + SMOOTH]))
            if k + 1 < len(self.probes):
                gap = self.probes[k + 1][0] - ends[k]
                ref.append(ref[-1] + gap * rates[k])
        self._marks = (ends, ref, rates)

    def _at(self, t: float) -> float:
        ends, ref, rates = self._marks
        k = bisect.bisect_right(ends, t) - 1
        if k < 0:
            return ref[0] - (ends[0] - t) * rates[0]
        start_next = self.probes[k + 1][0] if k + 1 < len(self.probes) else float("inf")
        return ref[k] + (min(t, start_next) - ends[k]) * rates[k]

    def ref_s(self, a: float, b: float) -> float:
        """Reference seconds of workload time between raw instants a < b,
        once the clock has stopped."""
        if self._running:
            raise RuntimeError("convert times after the clock has stopped")
        if self._marks is None:
            self._build()
        return self._at(b) - self._at(a)

    def median_probe_s(self) -> float:
        return statistics.median(e - s for s, e in self.probes)

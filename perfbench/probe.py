"""Machine-speed probe: converts measured time to reference seconds.

On a shared host the speed of a CPU changes by up to 2x within seconds,
as other tenants come and go on the same physical core.  CPU time does not
help: a contended core retires fewer instructions per cycle, so CPU time
grows too.  The probe times a small fixed piece of pure-Python arithmetic
(objects, method calls and int arithmetic, like pcurvkit's scalars) every
few milliseconds while the program runs, from a SIGALRM handler in the
same thread.  Each interval of the run is then rescaled by how much slower
the kernel ran than its reference duration at that moment:

    ref_s = sum(interval * REFERENCE_S / kernel_time)

ref_s is the time the run would take on a machine where one kernel takes
REFERENCE_S, and is steady to a few percent while raw time swings by 2x.
The kernel and REFERENCE_S are part of the benchmark's definition; changing
either changes every reference-seconds figure.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 100e-6       # nominal duration of one kernel call
PERIOD_S = 0.02            # probe interval


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 10007

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


_A = [_Residue(i) for i in range(1, 12)]
_B = [_Residue(3 * i + 1) for i in range(1, 12)]


def kernel() -> float:
    """Seconds taken by one schoolbook product of two 11-term polynomials."""
    t0 = time.perf_counter()
    out = [_Residue(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = out[i + j] + x * y
    return time.perf_counter() - t0


def burst(n: int = 15) -> float:
    """Median kernel time now."""
    return statistics.median(kernel() for _ in range(n))


class Probe:
    """Samples the kernel every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, kernel()))

    def start(self) -> None:
        self.samples.clear()
        self.k0 = burst(5)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """(raw seconds without the probe's own time, reference seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        k_end = burst(5)
        # (time, kernel time spent at the start of the next interval, speed)
        points = ([(self.t0, 0.0, self.k0)]
                  + [(t, k, k) for t, k in self.samples]
                  + [(t1, 0.0, k_end)])
        raw = ref = 0.0
        for (ta, spent, ka), (tb, _, kb) in zip(points, points[1:]):
            busy = tb - ta - spent
            raw += busy
            ref += busy * REFERENCE_S / ((ka + kb) / 2)
        return raw, ref

"""Host speed, read from a fixed reference computation run during the jobs.

The benchmark runs on a shared machine whose speed swings by up to 1.5x
within seconds, for CPU time as much as for wall time, so that the same job
takes 25% longer in one pass than in the next.  While a timed pass runs, a
profiling timer (SIGPROF, which starts no thread or process) interrupts the
process every SAMPLE_EVERY_S seconds of CPU time, and the handler times one
call of `reference()`: a fixed pure-Python computation of the package's
kind (sparse polynomials as dicts of exponent tuples, arithmetic mod p,
sorting).  It never calls the package, so a change to the package cannot
move it.  A job run that took t seconds, net of the handler's own time, is
reported as

    t * REFERENCE_S / (mean time of the reference calls made during it)

that is, as the seconds it would take on the reference machine at its
usual speed.  A run too short to hold MIN_SAMPLES calls borrows the calls
closest to it in time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

P = 32003
# Seconds of one reference() call, rounded, on the reference machine: a 2-vCPU
# Intel Xeon virtual machine (2.0 GHz), CPython 3.11.7.
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.025
MIN_SAMPLES = 12

_A = {(i % 3, i % 5, i % 7, i % 2): (17 * i + 3) % P for i in range(30)}
_B = {(i % 4, i % 2, i % 3, i % 5): (29 * i + 11) % P for i in range(20)}


def reference():
    """Multiply two fixed sparse polynomials mod P and fold the sorted
    product into a checksum."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % P
    check = 0
    for e, c in sorted(out.items(), reverse=True):
        if c:
            check = (check * 31 + c + e[0]) % P
    return check


class HostSpeed:
    """Reference calls made from a profiling timer, with their start times."""

    def __init__(self):
        self.stamps, self.times = [], []
        # Seconds spent in the handler so far, to be taken out of job times.
        self.overhead = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.stamps.append(start)
        self.times.append(end - start)
        self.overhead += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start, end):
        """Factor that turns seconds measured between `start` and `end`
        into reference seconds: the calls made in that span, or the
        MIN_SAMPLES calls nearest to it."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            if hi == len(self.stamps) or (lo > 0 and start - self.stamps[lo - 1]
                                          <= self.stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])

"""A clock that runs at the host's speed: wall time scaled to a reference host.

The benchmark's host runs in speed phases up to about 2x apart that change
every half second to a few seconds, and CPU time follows wall time through
them, so more samples alone do not steady a median.  `Clock` samples the
host's speed all through a run: a timer signal interrupts the program every
`TICK_S` seconds, and the handler times a small fixed kernel that uses only
the standard library (exact rational elimination, a slotted class with
operator methods, dict churn: the interpreter work hopfgal does).  A span of
program time is then scaled by `REFERENCE_S` over the kernel times around
it.  The kernel never touches hopfgal, so a change to hopfgal moves scaled
times exactly as it moves wall times at a fixed host speed.  The handler's
own time is left out of program time.

The collector is off while the kernel runs, so its time does not depend on
how large the program's heap has grown; the kernel runs twice per tick and
only the second, warm run is timed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Seconds between speed samples.
TICK_S = 0.1
# Kernel time, in seconds, that defines the reference host speed: a scaled
# time is the wall time the program would take on a host where the kernel
# takes this long.
REFERENCE_S = 0.0008
# A span between two ticks is scaled by the median kernel time of the
# ticks within this many of its ends.
WINDOW = 1


class _Mod:
    """An F_p element: the shape of hopfgal's scalar wrappers."""

    __slots__ = ("v",)
    P = 101

    def __init__(self, v):
        self.v = v % self.P

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


def _kernel():
    n = 5
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
             for j in range(n + 2)] for i in range(n)]
    r = 0
    for c in range(n + 2):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    acc = _Mod(1)
    for i in range(200):
        acc = acc * _Mod(i) + _Mod(3)
    table = {}
    for i in range(200):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return r, acc.v, len(table)


def sample():
    """Seconds the kernel takes now, timed warm with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Program time and host speed over a `with` block.

    `stamp()` reads program time: wall time less the time spent in the
    speed samples.  After the block, `scaled(a, b)` gives the span between
    two stamps in reference seconds.  Only one Clock may run at a time, in
    the main thread.
    """

    def __init__(self):
        self.paused = 0.0
        self.ticks = []     # program time of each speed sample
        self.kernel = []    # the kernel time measured at each
        self._previous = None

    def stamp(self):
        return time.perf_counter() - self.paused

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        k = sample()
        self.ticks.append(t0 - self.paused)
        self.kernel.append(k)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        # Scale of the span between tick j-1 and tick j.
        last = len(self.ticks) - 1
        self._scale = [REFERENCE_S / statistics.median(
            self.kernel[max(0, j - 1 - WINDOW):min(last, j + WINDOW) + 1])
            for j in range(1, last + 1)]
        return False

    def scaled(self, a, b):
        """Reference seconds between program-time stamps a <= b."""
        total = 0.0
        j = max(1, bisect.bisect_right(self.ticks, a))
        while a < b:
            end = self.ticks[j] if j < len(self.ticks) else b
            piece = min(end, b) - a
            total += piece * self._scale[min(j, len(self._scale)) - 1]
            a += piece
            j += 1
        return total

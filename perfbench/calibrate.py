"""Timing with machine-speed normalisation, for a shared machine.

On the 2-core virtual machine this benchmark was built on, the processor
switches between a fast and a slow state (about 1.8x apart) on timescales
from milliseconds to seconds, and process CPU time slows with wall time.
Raw times of the same operation spread by 30-60 % between runs.

`Timer` therefore samples the speed while it times a region.  An interval
timer interrupts the region every INTERVAL_S; the handler times a fixed
probe (a short mix of list, dict, tuple, Fraction and float operations
that allocates few objects, so it barely moves garbage collection) and, past
the time limit, raises TimeLimit.  The time spent in the handler is taken out
of the measured time, and

    normalised time = measured time * REFERENCE_S / mean probe time

is the time the region would have taken at the speed at which the probe
takes REFERENCE_S.  A few probes run just before the region, so a region
shorter than one interval still gets a speed.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Probe time at the reference speed: its median during operations on the
#: machine above, so normalised times stay close to measured ones there.
REFERENCE_S = 75e-6
INTERVAL_S = 0.002
PRE_SAMPLES = 5

_BUF = [0] * 16
_TABLE = {i: i * 3 for i in range(64)}
_FRACTIONS = [Fraction(i + 1, 7) for i in range(8)]


def probe_seconds() -> float:
    """Time a fixed mix of list, dict, tuple, Fraction and float work."""
    start = perf_counter()
    buf, table = _BUF, _TABLE
    for i in range(100):
        buf[i & 15] = (buf[(i + 7) & 15] + table[i & 63]) & 0xFFFF
    acc = _FRACTIONS[0]
    for f in _FRACTIONS:
        acc = acc * f + f
    keyed = {}
    for i in range(30):
        keyed[(i & 7, i >> 3)] = i
    x, v = 0.5, 0.25
    for _ in range(60):
        k = 0.3 * v + 0.2 * x
        x, v = x + 0.001 * v, v + 0.001 * k
    return perf_counter() - start


class TimeLimit(Exception):
    pass


class Timer:
    """Context manager: `elapsed` (measured seconds) and `factor` afterwards.

    `elapsed * factor` is the normalised time.  `wall` is the time from
    entry to exit, the handler's time included.
    """

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.samples: list = []
        self.handler_s = 0.0
        self.elapsed = self.wall = 0.0

    def __enter__(self) -> "Timer":
        self.samples = [probe_seconds() for _ in range(PRE_SAMPLES)]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        entered = perf_counter()
        self.samples.append(probe_seconds())
        self.handler_s += perf_counter() - entered
        if entered - self.start > self.limit_s:
            raise TimeLimit(f"exceeded the limit of {self.limit_s:g} s")

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = perf_counter() - self.start
        self.elapsed = self.wall - self.handler_s
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)

"""Machine-speed sampling, to steady the benchmark's time metrics.

The shared 2-core machine the baseline was taken on changes speed from
minute to minute and second to second: the same op takes up to 1.6x longer
in some spells, in CPU time as much as in wall time. Pinning to one core
does not help, and a reference loop timed between ops did not track the
ops, because the speed changes within an op. Ten raw runs per workload
spread by 21-42% between their quartiles.

``Sampler`` times a fixed ~0.2 ms pure-Python loop from a SIGALRM handler
every 25 ms while an interval is measured, so the samples cover the same
seconds as the work; the handler costs under 1% of the interval. A time is
reported as ``wall * REF_S / median(samples)``: seconds at the speed at
which the loop takes ``REF_S``. Over 20 identical ``dt-3d`` ops this cut
the coefficient of variation from 17% to 7%. Both commits of a comparison
run the same loop, so the factor cancels in their ratio; raw wall times are
printed on the ``#`` lines.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# The loop's median time on the reference machine (Intel Xeon, 2 cores,
# Python 3.11.7, numpy 2.4.6) outside slow spells.
REF_S = 0.00018

_ROW = np.random.default_rng(0).random(512)


def _loop() -> float:
    """Numpy-scalar reads and float arithmetic: the EDT's instruction mix."""
    t0 = time.perf_counter()
    acc = 0.0
    for q in range(_ROW.size):
        x = _ROW[q]
        acc += (x * x - acc) / (2.0 * (q + 1.0))
    return time.perf_counter() - t0


class Sampler:
    """Context manager that samples the loop's time while it is active."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_loop())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # interval shorter than one period
            self.samples.append(_loop())

    def factor(self) -> float:
        """Multiplier that turns a wall time of this interval into seconds
        at the reference speed."""
        return REF_S / statistics.median(self.samples)

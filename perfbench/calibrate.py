"""Host-speed calibration of item times.

On a shared host the speed of one core changes with what other tenants run
beside it: on the 2-CPU sandbox this benchmark was written on, the same
exact-rational computation took either about 73 ms or about 130 ms of CPU
time, switching every few seconds.  Raw times of the same item over a few
minutes then spread by 30-45%, more than any bound a regression check could
use.

So while an item runs, `SpeedProbe` times a small fixed reference kernel of
`Fraction` arithmetic, the kind of work qcycle does, every `INTERVAL` of
process CPU time (a SIGPROF interval timer), and scales the item's CPU time
by REFERENCE_SECONDS over the kernel's mean time during the item.  The result
is the item's CPU time at reference speed: seconds as they would read with
the kernel running at REFERENCE_SECONDS, the kernel's time on an uncontended
core of that sandbox.  The kernel's own time is taken out of the item's.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE = tuple(Fraction(i % 7 + 1, i % 11 + 1) for i in range(1, 200))
REFERENCE_SECONDS = 0.00028
INTERVAL = 0.02
PRIMING_SAMPLES = 3


def kernel() -> Fraction:
    acc = Fraction(0)
    for value in REFERENCE:
        acc += value
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def speed_factor(samples) -> float:
    """REFERENCE_SECONDS over the mean kernel time.

    Samples above 3x the median are dropped: those are the kernel being
    descheduled, which process CPU time does not count either.
    """
    median = statistics.median(samples)
    return REFERENCE_SECONDS / statistics.fmean(s for s in samples if s <= 3 * median)


class SpeedProbe:
    """Context manager sampling the reference kernel while a timed region runs.

    `samples` holds every kernel time, `spent` only those taken inside the
    region, which the caller subtracts from the region's CPU time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self.samples = [kernel_seconds() for _ in range(PRIMING_SAMPLES)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self.spent += seconds

    def scale(self, cpu_seconds: float) -> float:
        """CPU seconds of the region, without the kernel, at reference speed."""
        return (cpu_seconds - self.spent) * speed_factor(self.samples)

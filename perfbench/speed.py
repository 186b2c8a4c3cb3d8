"""Host-speed calibration: time work in reference-speed seconds.

On a shared host the same Python code runs up to about twice as fast
at one moment as a few seconds later (other tenants share the cores), so
raw host seconds of one run say more about the neighbours than about the
program.  Every timed unit of the benchmark is therefore bracketed by a
short fixed calibration kernel run in the same process, and its host
seconds are rescaled by how fast that kernel ran meanwhile:

    reference seconds = host seconds * REFERENCE_KERNEL_S / kernel seconds

where the kernel time is the mean of the measurements just before and
just after the unit and, for a unit longer than :data:`SAMPLE_EVERY_S`,
of single kernel rounds run every :data:`SAMPLE_EVERY_S` inside it from
a timer signal (their own time is taken out of the unit's host seconds).
A unit that takes 1 s while the kernel takes ``REFERENCE_KERNEL_S``
counts as 1 reference second.  The kernel is the benchmark's own
pure-Python code (dict updates and integer arithmetic, like the
interpreter-bound program under test), so no change to the program can
change it.
"""

from __future__ import annotations

import signal
import time

perf_counter = time.perf_counter

#: Kernel time that defines one reference second (about the fastest
#: the kernel runs on a 2-core x86 cloud host).
REFERENCE_KERNEL_S = 300e-6

#: Interval of the in-unit kernel samples.
SAMPLE_EVERY_S = 0.05

_KERNEL_ROUNDS = 3


def _kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(table)
    return total


def _kernel_round() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def kernel_seconds() -> float:
    """Median time of a few kernel runs, now."""
    times = sorted(_kernel_round() for _ in range(_KERNEL_ROUNDS))
    return times[len(times) // 2]


class SpeedClock:
    """Times consecutive units of work in reference seconds.

    The kernel measurement after one unit doubles as the one before the
    next, so a sequence of ``n`` units costs ``n + 1`` calibrations.
    ``sample=True`` also samples the kernel inside each unit; only a
    process's main thread can do that, and the unit must not use
    ``SIGALRM`` itself.
    """

    def __init__(self, *, sample: bool = False) -> None:
        self.sample = sample
        self.last = kernel_seconds()
        #: every kernel measurement taken, in order
        self.samples = [self.last]
        self._inside: list[float] = []

    def recalibrate(self) -> float:
        self.last = kernel_seconds()
        self.samples.append(self.last)
        return self.last

    def _on_timer(self, signum, frame) -> None:
        self._inside.append(_kernel_round())

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return ``(result, reference seconds, host seconds)``."""
        before = self.last
        self._inside = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            host = perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        host -= sum(inside)
        after = self.recalibrate()
        self.samples.extend(inside)
        kernels = [before, after, *inside]
        return result, host * REFERENCE_KERNEL_S * len(kernels) / sum(kernels), host


def rescale(host_seconds: float, kernel_samples) -> float:
    """Reference seconds of a span whose kernel samples are given."""
    mean = sum(kernel_samples) / len(kernel_samples)
    return host_seconds * REFERENCE_KERNEL_S / mean

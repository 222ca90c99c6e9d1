"""Times at a reference machine speed.

The benchmark shares its cores with other tenants, whose load changes the
speed of the interpreter by up to half within seconds and drifts over
minutes; raw seconds of two runs of the same code differ by more than any
useful regression bound.  So a timer signal interrupts the work every
``INTERVAL_S`` and runs a fixed pure-Python kernel (dicts, strings and a
``repr``-keyed sort, operations lamu spends much of its time in).  Its
duration samples the current speed.  A span of work measured while the
kernel took ``k`` seconds on average is reported as
``raw * KERNEL_REF_S / k`` seconds: its duration on a machine where the
kernel takes ``KERNEL_REF_S``.  The time spent in the kernel is taken out
of the raw time first.  Measured on a two-core x86-64 host with Python
3.11, lamu timings over 2-second windows vary by about 15% while their
ratio to interleaved kernel timings varies by about 3%.
"""
from __future__ import annotations

import gc
import signal
import time
from typing import List

INTERVAL_S = 0.05
KERNEL_REF_S = 0.0012       # its best time on a 2-core x86-64 host, Python 3.11


def kernel() -> int:
    """Fixed work, iterative so that it adds two frames to any stack.  It
    builds only strings and ints, which the cyclic collector does not
    track, so it leaves the workload's collection points where they were."""
    acc = {}
    for i in range(2000):
        key = f"{i % 7}:{i % 5}:{i % 3}:{i % 11}"
        acc[key] = acc.get(key, 0) + len(key)
    order = sorted(acc, key=repr)
    return len(order)


class SpeedProbe:
    """Samples the kernel on a timer, or when polled between inputs."""

    def __init__(self):
        self.samples: List[float] = []    # kernel durations, in order
        self.spent = 0.0                   # seconds spent sampling
        self.last = 0.0                    # when the last sample began
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:      # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = self.last = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()        # collect none of the workload's garbage here
        try:
            k0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop_timer()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stop_timer(self) -> None:
        """Sample only through ``poll`` and ``factor`` from now on."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def poll(self) -> None:
        """Sample if the timer has not done so for ``INTERVAL_S``."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def mark(self) -> int:
        """Position in the samples, to take a factor over a later span."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per raw second over the samples since
        ``since``; the span is sampled once more at its end."""
        self.sample()
        window = self.samples[since:]
        return KERNEL_REF_S * len(window) / sum(window)

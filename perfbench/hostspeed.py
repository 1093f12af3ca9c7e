"""Timing in reference seconds: wall time scaled by a probe of the host's speed.

The benchmark runs on a share of a machine whose speed drifts by up to half
over seconds to minutes, while the program's own work stays the same. A
fixed probe computation, timed between the program's steps, drifts with it:
over 15 s windows a 20-household simulation and a probe like this one spread
0.21 and 0.20 of their medians, their ratio only 0.06 (see README.md). So a
command is timed in units of the probe and reported in reference seconds:

    reference seconds = (wall seconds of the command, less its probes)
                        × REFERENCE_PROBE_S / (mean probe wall seconds)

A SIGPROF interval timer fires every INTERVAL_S of the process's CPU time;
its handler runs the probe once and records its wall time. (On the
reference host the process's CPU clock advances only at scheduler ticks,
too coarse for a 1 ms probe.) The probe also runs PROBES_AROUND times
before and after each command, so that a short command has samples too.
The probe is about 1 ms of the kind of work gridcharge's step loop does
(small-array numpy calls from the interpreter, and small matrix products)
on arrays of its own; it does not touch gridcharge, so a change to the
program does not change the probe.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# Mean probe time when this host ran at its faster level; any fixed value
# would do, this one keeps reference seconds close to CPU seconds.
REFERENCE_PROBE_S = 0.0010
INTERVAL_S = 0.05
PROBES_AROUND = 3
# Set-up lasts well under a second on the 20-household workloads, so it
# gets more probes after it.
PROBES_AFTER_SETUP = 12

_X0 = np.arange(20.0)
_M = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)


def probe() -> float:
    """The fixed reference computation."""
    x, acc = _X0, 0.0
    for i in range(150):
        y = np.maximum(x * 0.5 - i, 0.0)
        acc += float(y.sum())
        x = x[::-1].copy()
    for _ in range(12):
        acc += float((_M @ _M).trace())
    return acc


@dataclass
class Timing:
    wall_s: float  # wall seconds of the command, less the probes within it
    probes: int
    probe_mean_s: float

    @property
    def reference_s(self) -> float:
        return self.wall_s * REFERENCE_PROBE_S / self.probe_mean_s


class Meter:
    """Samples the probe on a CPU-time interval timer while it is started."""

    def __init__(self) -> None:
        self.count = 0
        self.probe_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t = time.perf_counter()
            probe()
            self.probe_s += time.perf_counter() - t
            self.count += 1
        finally:
            self._busy = False

    def start(self) -> None:
        probe()  # its first call pays for numpy's lazy set-up; not counted
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self._sample()

    def time(self, fn, *args):
        """Runs fn(*args) with probes before, during and after it.

        Returns its result and its Timing. The wall time counts only the
        call; the probe mean counts the probes around it too.
        """
        n0, p0 = self.count, self.probe_s
        self.around()
        t, p1 = time.perf_counter(), self.probe_s
        result = fn(*args)
        wall = time.perf_counter() - t - (self.probe_s - p1)
        self.around()
        n = self.count - n0
        return result, Timing(wall, n, (self.probe_s - p0) / n)

    def since_start(self, t0: float) -> Timing:
        """Wall time since t0, less every probe so far; the probe mean
        counts every probe so far and those run now."""
        wall = time.perf_counter() - t0 - self.probe_s
        for _ in range(PROBES_AFTER_SETUP):
            self._sample()
        return Timing(wall, self.count, self.probe_s / self.count)

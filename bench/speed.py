"""Host-speed probe: rescales measured times to a nominal host speed.

On a shared host the speed of one core drifts by up to 2x over seconds and
minutes (other tenants, frequency changes), which no amount of repetition
inside a run averages away.  The probe runs a small fixed reference kernel
(no clarklab code: a Python loop over tiny numpy arrays, the kind of work the
clarklab layers do) from a SIGALRM handler every ``INTERVAL_S`` seconds, in
the same thread as the workload, so it sees the core in the state the
workload sees it.  A time measured while the probe runs is rescaled by

    nominal time = raw time * mean(REF_NOMINAL_S / kernel time of each sample)

that is, to the time it would have taken on a core where the reference
kernel takes ``REF_NOMINAL_S``.  The kernel does not depend on the program
under test, so a change to the program moves the rescaled time exactly as it
moves the raw time on a steady host.  The probe costs about 1% of the run.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# the reference kernel's time on an uncontended core of an Intel Xeon
# cloud host; only sets the unit of the rescaled times
REF_NOMINAL_S = 1.5e-4

_BASE = np.linspace(0.0, 1.0, 16)


def reference_kernel() -> float:
    """Fixed work: 40 small numpy steps and a short pure-Python loop."""
    a = _BASE
    acc = 0.0
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
        acc += float(a[3])
    k = 0
    for i in range(300):
        k += i * i % 7
    return acc + k


class SpeedProbe:
    """Samples the reference kernel's time while installed.

    ``mark()`` returns a position in the sample list; ``factor(start, end)``
    is the mean of REF_NOMINAL_S / sample over the samples taken between two
    marks (1.0 when there are none, which only happens for intervals much
    shorter than INTERVAL_S)."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    def install(self):
        reference_kernel()  # first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int = 0, end: int | None = None) -> float:
        window = self.samples[start:end]
        if not window:
            return 1.0
        return REF_NOMINAL_S * float(np.mean(1.0 / np.asarray(window)))

"""How fast the host runs Python while the workload runs.

On a shared host, other tenants' load slows this process's core by up to
half.  The load switches on and off on a scale of fractions of a second to
tens of seconds, and its level drifts by a third over minutes, so the same
code reads differently from one run to the next.  Repetition does not help
a call that lasts longer than a quiet spell.  Each timed span is therefore
scaled to a reference speed of the host:

* a timer signal interrupts the process every ``INTERVAL_S`` and times a
  fixed pure-Python loop on the same core (run once untimed first, so a
  process woken from waiting on a child is measured warm);
* a span's scale is ``REFERENCE_S`` over the loop's mean time in and around
  the span, and ``time * scale`` is the span's time on a host where the loop
  takes ``REFERENCE_S``.

``REFERENCE_S`` is about the loop's time on a quiet 2-core x86_64 VM, so
scaled times there read close to wall-clock times; on another host the two
differ by a constant factor.  The probe takes about 0.3% of the process's
time, the same in every run.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.01
PROBE_LOOP = 200
REFERENCE_S = 10e-6
# A span shorter than the host's load spells is judged by the samples within
# this distance of it.
MARGIN_S = 0.05


def _loop() -> int:
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    return s


class HostLoad:
    """Context manager that samples the host's speed while it is entered."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        _loop()
        t0 = time.perf_counter()
        _loop()
        self.took.append(time.perf_counter() - t0)
        self.at.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, starts, ends) -> np.ndarray:
        """Factor taking each span's (start, end) time to the reference speed."""
        at = np.frombuffer(self.at, dtype=np.float64)
        took = np.frombuffer(self.took, dtype=np.float64)
        csum = np.concatenate(([0.0], np.cumsum(took)))
        lo = np.searchsorted(at, np.asarray(starts) - MARGIN_S)
        hi = np.searchsorted(at, np.asarray(ends) + MARGIN_S)
        n = hi - lo
        mean = np.where(n > 0, (csum[hi] - csum[lo]) / np.maximum(n, 1),
                        np.median(took))
        return REFERENCE_S / mean

    def mean_s(self) -> float:
        return float(np.mean(np.frombuffer(self.took, dtype=np.float64)))

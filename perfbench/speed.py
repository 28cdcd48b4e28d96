"""CPU speed sampling, to report times at a fixed reference speed.

The vCPUs of a shared host change speed for stretches of a fraction of a
second to a minute (the same pure-Python work runs up to 1.6x slower in
the slow state), so raw wall times of the same code spread by more than
any useful regression bound. ``SpeedMeter`` runs a fixed pure-Python
calibration loop from a SIGALRM handler every ``INTERVAL_S`` seconds while
the measured code runs in the main thread, and ``reference_seconds``
scales the measured wall time by the mean sampled speed:

    reference seconds = wall seconds * mean(REFERENCE_CAL_S / sample_s)

that is, the time the same work would take on a CPU that runs one
calibration loop in ``REFERENCE_CAL_S``. Speeds, not times, are averaged,
so the mean weights each stretch of wall time equally. The handler costs
about 0.6% of the measured time; it runs in both the parent's and a
change's measurements alike.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# One calibration loop takes 0.2-0.33 ms on the 2-vCPU Xeon host the bounds
# were set on; the constant only fixes the unit.
REFERENCE_CAL_S = 250e-6
CAL_ITERATIONS = 3000


def calibration() -> float:
    """Fixed interpreter-bound work: list indexing, float adds, branches."""
    table = [0.5, 1.5, 2.5, 3.5]
    total = 0.0
    q = 0
    for _ in range(CAL_ITERATIONS):
        total += table[q]
        q = (q + 1) & 3
        if total > 1e9:
            total = 0.0
    return total


def sample() -> float:
    """Duration of one calibration loop, in seconds."""
    t0 = time.perf_counter()
    calibration()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples the CPU's speed every INTERVAL_S while the block runs.

    Must be entered from the main thread. With no sample taken (a block
    shorter than INTERVAL_S) one sample is taken on exit.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _handler(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(sample())
        return False

    def speed(self) -> float:
        """Mean sampled speed relative to the reference CPU (1.0 = reference)."""
        return statistics.fmean(REFERENCE_CAL_S / s for s in self.samples)


def bracketed_speed() -> float:
    """Speed from a few back-to-back calibration loops, for work that runs in a child process."""
    return statistics.fmean(REFERENCE_CAL_S / sample() for _ in range(5))

"""Same-run calibration: how fast this host runs plain Python right now.

The benchmark shares its machine with other work, and the machine's
speed drifts by tens of percent, from one tenth of a second to the next
and from one minute to the next; CPU time drifts with it, so it is the
processor, not the scheduler, that slows.  Each timed region is
therefore sampled: every ``INTERVAL_SECONDS`` a timer signal times a
fixed calibration loop, and the region is reported in *reference
seconds*, its measured seconds times the mean over the samples of
``REFERENCE_SECONDS`` / sample.  The samples are spaced evenly in time,
so that mean is the host's average speed over the region relative to a
host where the loop takes ``REFERENCE_SECONDS``.  The constant is near
the loop's time on the 2-core x86-64 container the benchmark was
written on; it only sets the scale.  A region too short for a timer
sample uses one sample taken before and one after it.

The loop uses none of the program under test, so no change to the
program can move it: dictionary, list and float work of the kind the
simulator's inner loops do.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Time of one calibration sample on the reference host (seconds).
REFERENCE_SECONDS = 0.0016

#: Loop iterations of one calibration sample.
ITERATIONS = 8_000

#: Period of the samples taken during a timed region (seconds).
INTERVAL_SECONDS = 0.1


def _loop(iterations: int) -> float:
    table = dict.fromkeys(range(256), 0.0)
    window: list[int] = []
    total = 0.0
    for index in range(iterations):
        key = (index * 31) & 255
        total += table[key]
        table[key] = total * 0.5 + index
        window.append(key)
        if len(window) > 64:
            window.clear()
    return total


def sample() -> float:
    """Seconds one run of the fixed calibration loop takes now."""
    started = time.perf_counter()
    _loop(ITERATIONS)
    return time.perf_counter() - started


class Scaled:
    """Times one region in reference seconds (see the module docstring).

    The samples interrupt the timed code, so their cost
    (``sampling_seconds``) is taken out of the measured seconds.
    """

    def __enter__(self) -> "Scaled":
        self.samples: list[float] = []
        self._edges = [sample()]
        self.sampling_seconds = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS,
                         INTERVAL_SECONDS)
        self._started = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(sample())
        self.sampling_seconds += time.perf_counter() - started

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edges.append(sample())
        self.raw_seconds = elapsed - self.sampling_seconds
        #: Mean host speed over the region, relative to the reference.
        self.speed = statistics.fmean(
            REFERENCE_SECONDS / seconds
            for seconds in self.samples or self._edges)
        #: Mean calibration time implied by that speed (for reports).
        self.calibration = REFERENCE_SECONDS / self.speed
        self.seconds = self.raw_seconds * self.speed

"""Timing scaled to the machine's momentary speed.

On a shared machine the speed of one core drifts by more than half within
seconds, and CPU time drifts with it, so neither wall time nor CPU time of
the code under test is steady. A Stopwatch therefore runs a fixed loop of
plain integer arithmetic (the probe) at both ends of every timed lap, and
every PROBE_EVERY_S inside it, and scales the lap by REFERENCE_S over the
mean probe time. The result reads as seconds on a machine where the probe
takes REFERENCE_S. The probe is bench code, so the library under test never
changes it, and its own time is left out of the lap.
"""

import signal
import statistics
import time

PROBE_LOOPS = 50_000
#: Probe time the laps are scaled to: about its time on an idle core of the
#: machine this was tuned on (a 2-core x86-64 VM, Python 3.11).
REFERENCE_S = 0.003
#: A probe inside a long lap follows speed changes that happen within it;
#: at this interval the probes add about 1% to a lap's elapsed time.
PROBE_EVERY_S = 0.5


def probe_s() -> float:
    """The faster of two runs of the probe loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Times laps between start() and stop(), each scaled by the probes
    taken at its ends and, through SIGALRM, inside it. The probe taken by
    stop() is also the first probe of the next lap. Only one Stopwatch may
    have a lap running at a time, in the main thread."""

    def __init__(self):
        self.probes = [probe_s()]
        self.total = 0.0
        self._lap_probes: list[float] = []
        self._paused = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self._lap_probes = [self.probes[-1]]
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._probe_inside)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe_inside(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._lap_probes.append(probe_s())
        self._paused += time.perf_counter() - t0

    def stop(self) -> float:
        """Ends the lap, adds its scaled seconds to `total` and returns
        them."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0 - self._paused
        self.probes.append(probe_s())
        self._lap_probes.append(self.probes[-1])
        seconds = elapsed * REFERENCE_S / statistics.fmean(self._lap_probes)
        self.total += seconds
        return seconds

    def lap(self) -> float:
        """stop() and start() in one."""
        seconds = self.stop()
        self.start()
        return seconds

"""A machine-speed probe that turns host seconds into reference seconds.

On a shared machine the speed at which one core runs Python drifts by
tens of percent over seconds to minutes (other tenants' load on the same
physical cores and caches), and the drift shows in CPU time as much as
in wall time.  Repetition cannot average a minute-long slow phase away
within a benchmark run, so the benchmark measures the drift instead:
every :data:`PROBE_EVERY_S` of wall time a SIGALRM handler times a fixed
piece of interpreter work (:func:`probe_work`), and each stretch of host
time between two probes is scaled by how much slower than
:data:`REFERENCE_PROBE_S` the probes around it ran.  The result is
*reference seconds*: the host seconds the same work would have taken had
the machine run at the reference speed throughout.  The probes' own time
is left out.

The reference is a constant, so reference seconds from two runs (or two
commits) on the same machine are directly comparable; it is the probe's
duration on the 2-vCPU Xeon the benchmark's bounds were set on when that
machine runs at full speed, so reference seconds read there as the host
seconds of an uncontended run.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

__all__ = ["SpeedProbe", "probe_work", "PROBE_EVERY_S",
           "REFERENCE_PROBE_S"]

#: Wall seconds between probes.
PROBE_EVERY_S = 0.02
#: Duration of :func:`probe_work` at the reference speed.
REFERENCE_PROBE_S = 160e-6
#: Probes on each side whose median gives a stretch's speed.
SMOOTH = 2


def probe_work() -> int:
    """A fixed mix of what the simulator spends its time on: heap
    pushes and pops, dict updates and integer arithmetic.  It allocates
    no container per iteration, so it never triggers a garbage
    collection that would be timed with it."""
    heap: list = []
    seen: dict = {}
    acc = 0
    for i in range(450):
        heapq.heappush(heap, (i * 7919) % 251)
        seen[i & 31] = seen.get(i & 31, 0) + i
    while heap:
        acc += heapq.heappop(heap) % 13
    return acc + len(seen)


class SpeedProbe:
    """Probes the machine's speed while started; must be started from
    the main thread.  ``probes`` holds ``(monotonic start, seconds)``."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, *_signal) -> None:
        t0 = time.monotonic()
        probe_work()
        self.probes.append((t0, time.monotonic() - t0))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()

    def _factors(self) -> list[float]:
        durations = [d for _, d in self.probes]
        return [REFERENCE_PROBE_S / statistics.median(
                    durations[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i in range(len(durations))]

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds in the monotonic interval [start, end].

        The stretch before each probe runs at that probe's (smoothed)
        speed; time before the first probe at the first's, time after
        the last at the last's.
        """
        if not self.probes:
            raise RuntimeError("speed probe never ran")
        total, at = 0.0, start
        factors = self._factors()
        for (t0, d), factor in zip(self.probes, factors):
            if at >= end:
                return total
            if t0 > at:
                total += (min(t0, end) - at) * factor
            at = max(at, t0 + d)
        if end > at:
            total += (end - at) * factors[-1]
        return total

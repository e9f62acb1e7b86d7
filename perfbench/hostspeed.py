"""How fast the shared host runs pure-Python code at each moment of a run.

On a shared machine the same code runs up to twice as slow for stretches
of seconds to many minutes, as other tenants load the sibling hardware
threads.  A ten-second run cannot average such a stretch out, so raw
figures from different runs disagree by more than any regression worth
catching.

The harness therefore times a fixed reference loop between library calls,
every few tens of milliseconds, for the whole run.  A timing divided by the
loop's duration around it, times the loop's nominal duration, reads as the
time the work would take at the reference host speed.  Every end-to-end
timing, set-up included, is reported that way; raw figures are printed
next to the adjusted ones.  The loop lives here and allocates almost
nothing, so no change to the library's own code path can slow it.

Blind spot: the loop runs in the benchmark's own process, so a slowdown
that hits the whole process is divided out along with the host's.  If the
library started background threads (a native thread pool, say), they would
contend with the loop for the interpreter and the two cores, and the
adjusted figures would hide the cost.  The raw figures still show it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The reference loop's duration at the reference host speed.
NOMINAL_NS = 400_000
# Loop samples taken on each side of an interval when adjusting it.
NEIGHBOURS = 3
SAMPLE_EVERY_NS = 20_000_000

_now = time.perf_counter_ns


def _reference_loop() -> int:
    acc = 0
    for i in range(3000):
        acc = (acc + i * 7) % 8191
    return acc


class HostSpeed:
    def __init__(self):
        self.times: list[int] = []  # end of each loop sample
        self.durations: list[int] = []

    def sample(self) -> None:
        t0 = _now()
        _reference_loop()
        t1 = _now()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def sample_if_stale(self) -> None:
        if not self.times or _now() - self.times[-1] >= SAMPLE_EVERY_NS:
            self.sample()

    def slowdown(self, start: int, end: int) -> float:
        """Median loop duration over [start, end] and the NEIGHBOURS samples
        on either side, relative to the nominal duration."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        window = self.durations[max(0, i - NEIGHBOURS) : j + NEIGHBOURS]
        return statistics.median(window) / NOMINAL_NS

    def adjust(self, start: int, elapsed: int) -> float:
        """`elapsed` ns of work begun at `start`, at the reference speed."""
        return elapsed / self.slowdown(start, start + elapsed)

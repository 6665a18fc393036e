"""The host probe: how fast this host runs, measured while the work runs.

This benchmark runs on small shared hosts whose speed drifts by 20-40%
over seconds to minutes, because other tenants share the cores.  CPU
time grows with wall time, so it is the CPU running slower, not the
process waiting, and no estimator over raw wall times holds it out.
A probe run between reps cannot follow it either: bursts of slowness
last a second or a few, shorter than a ``matrix-grid12`` rep, and such
a probe tracked that workload's rep times with a correlation of only
0.3-0.5.

So the probe runs *during* the work.  A wall-clock interval timer
(``SIGALRM`` every ``INTERVAL_S``) interrupts the process, and the
handler times a tiny fixed pure-Python loop, a *tick*.  The mean tick
over a timed region says how fast the host ran during it: over two
sets of ten 30 s runs per workload it tracked the rep times with a
correlation of 0.82-0.97.  A timing is reported at the *reference
speed*: its wall seconds times ``REFERENCE_S`` over that mean tick.
The ticks cost under 1% of the time, the same on every commit, and
run none of the repository's code.

Python runs signal handlers between bytecodes, so no tick lands inside
a long numpy call; it runs when the call returns, in whatever cache
state the call left.  Where ticks land therefore depends on the code
under test.  ``README.md`` records the check that this does not eat a
real change: copies of the program with fixed extra work injected
(one long numpy sort, or a pure-Python loop) were run against the
unchanged program in ten alternating pairs per workload, and the
normalized slow-down matched the wall-time slow-down to within 1.5
points on changes of 13-27%.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

#: Seconds between ticks.
INTERVAL_S = 0.01
#: Steps of the ticked loop (55-80 us on this benchmark's 2-CPU host).
LOOP = 1000
#: Tick seconds on a host at the reference speed (about this
#: benchmark's 2-CPU host at its fastest).  A normalized timing reads
#: as seconds on such a host.
REFERENCE_S = 55e-6


class HostProbe:
    """Ticks while started; regions are read back by :meth:`mark`."""

    def __init__(self) -> None:
        self.ticks: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        self.ticks.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A position to read the ticks since."""
        return len(self.ticks)

    def since(self, mark: int) -> List[float]:
        return self.ticks[mark:]


def mean_tick(ticks: List[float]) -> Optional[float]:
    return statistics.fmean(ticks) if ticks else None


def normalized(seconds: float, tick_s: float) -> float:
    """*seconds* at the reference speed, given the mean tick over them."""
    return seconds * REFERENCE_S / tick_s

"""Host-speed calibration of timed code.

The shared host this benchmark runs on changes speed by itself: a fixed
block of pure-Python arithmetic, run back to back, takes from 0.6 to 1.3
times its usual time, in stretches of seconds to minutes.  CPU time drifts
with wall time, since the slowdown is not time spent descheduled.  A
run-to-run spread of that size would hide any change smaller than a third.

So while an op runs, a SIGALRM timer interrupts it every ``PERIOD_S`` and runs
a fixed *reference block* on the same thread: fraction-free Gauss-Jordan
elimination of a small integer matrix, the tableau arithmetic of tropfan's
exact simplex.  Its mean time over the op says how
fast the host was during the op.  The op's time, less the time spent in
reference blocks, is scaled to the speed at which one block takes
``NOMINAL_S``: calibrated seconds.  The reference block is fixed code of this
file and calls nothing in tropfan, so a change to the library moves
calibrated times as it would move wall times on a steady host.

The block was chosen by how well it tracks op times.  Over 100 s of one op
repeated while the host changed speed, ops calibrated by this block spread
by 2-6% (interquartile, as a share of the median), and their wall time
grew with the block's time at a log-log slope of 0.87-1.01.  A block of
``Fraction`` arithmetic spread by 5-8% at a slope of 0.74-0.93, and a block
of random memory reads did not track op times at all.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.01  # one reference block per 10 ms of timed code (about 2% overhead)
# Time of one reference block at the nominal host speed, a fixed constant.  On
# a 2-vCPU Intel Xeon (Sapphire Rapids, KVM guest) under Python 3.11 a block
# took 90-230 us (median 140 us) over 40 runs.  A calibrated second is a wall
# second at the speed where a block takes NOMINAL_S.
NOMINAL_S = 200e-6
# Fixed 7 x 8 integer matrix whose elimination needs no zero pivot.
MATRIX = tuple(tuple((7 * i + 3 * j * j + 5 * i * j + 1) % 23 - 11 for j in range(8))
               for i in range(7))


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination divided inexactly")
    return q


def reference_block() -> list[list[int]]:
    """Fraction-free Gauss-Jordan elimination of MATRIX: each pivot updates
    every other row by ``(x * piv - f * p) / previous piv``, exactly."""
    rows = [list(r) for r in MATRIX]
    den = 1
    for k in range(len(rows)):
        prow = rows[k]
        piv = prow[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [_exact_div(x * piv - f * p, den) for x, p in zip(row, prow)]
        den = piv
    return rows


class HostSpeed:
    """Samples reference blocks while a timed section runs.

    ``start()`` runs one block at once and arms the timer; ``stop()`` disarms
    it.  Between the two, ``samples`` holds each block's time and ``spent``
    their sum, which the caller subtracts from the section's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        # A collection started by the block's allocations would time the op's
        # heap, not the host: a block with a full collection in it took 20
        # times as long as the others.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_block()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self) -> float:
        """How much slower than nominal the host ran: mean block time ÷ NOMINAL_S."""
        return statistics.fmean(self.samples) / NOMINAL_S

    def calibrated(self, wall_s: float) -> float:
        """``wall_s`` of the section, less the reference blocks, at nominal speed."""
        return (wall_s - self.spent) / self.factor()

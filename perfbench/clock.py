"""Speed-normalised timing.

On the small virtual machines this benchmark was built on, the CPU's
speed drifts: for some seconds the same fixed computation takes up to
1.8 times as long as in the next, and bicrit's operations slow down
with it.  A
``Gauge`` runs a fixed reference computation that uses no bicrit code at
short intervals between operations.  Each interval's wall time is scaled
by the reference's nominal time divided by the mean reference time at
the interval's two ends, so a figure stays in seconds but stops
following the machine's drift.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Times of ``small_work()`` and ``big_work()`` on the baseline machine in
# its fast state (10th percentile of 23k timings each; Python 3.11.7,
# 2 vCPUs); see README.md.  Normalised figures are seconds of that
# machine.
NOMINAL_SMALL_S = 0.000313
NOMINAL_BIG_S = 0.000420

_SMALL = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(1, 50)]
_KEYS = [(i * 7919) % 1009 for i in range(400)]
_BIG_P = Fraction(3**1900 + 11, 5**1300 + 3)
_BIG_Q = Fraction(7**1100 + 5, 2**3000 + 1)


def small_work():
    """Exact Fraction arithmetic on small integers, a sort and dict work."""
    acc = Fraction(0)
    for f in _SMALL:
        acc += f * f - Fraction(1, 3)
    counts = {}
    for k in sorted(_KEYS):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return acc, len(counts)


def big_work():
    """Exact Fraction arithmetic on integers of a few thousand bits."""
    big = _BIG_P
    for _ in range(2):
        big = (big + _BIG_Q) * Fraction(2, 3) - _BIG_Q
    return big < _BIG_Q


def _median_time(work, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# A checkpoint is due once this much time has passed since the last one;
# each part of the reference is timed REPEATS times per checkpoint.
INTERVAL_S = 0.04
REPEATS = 5


class Gauge:
    """Reference timings taken between operations, and the scales they give.

    ``checkpoint`` times both parts of the reference REPEATS times each
    and keeps the medians; ``due`` says whether INTERVAL_S has passed
    since the last checkpoint.  Interval k lies between checkpoints k and
    k+1.  ``big_share`` is the weight of the big-integer part: how much
    the timed work is big-integer arithmetic, which slows down less than
    the rest when the machine does.
    """

    def __init__(self, big_share: float):
        self.big_share = big_share
        self.marks = []  # (small_work time, big_work time) per checkpoint
        self._last = None

    def checkpoint(self) -> int:
        self.marks.append((_median_time(small_work, REPEATS), _median_time(big_work, REPEATS)))
        self._last = time.perf_counter()
        return len(self.marks) - 1

    @property
    def current(self) -> int:
        """Index of the interval that is open now."""
        return len(self.marks) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def reading(self, k: int, big_share: float | None = None) -> float:
        """Checkpoint k's reference time relative to nominal (1.0 = nominal speed)."""
        w = self.big_share if big_share is None else big_share
        small, big = self.marks[k]
        return (1 - w) * small / NOMINAL_SMALL_S + w * big / NOMINAL_BIG_S

    def scale(self, interval: int, big_share: float | None = None) -> float:
        """Factor turning wall seconds in ``interval`` into normalised seconds."""
        ends = self.reading(interval, big_share) + self.reading(interval + 1, big_share)
        return 2 / ends

"""Machine-speed reference for the benchmark's timings.

On a shared host the same pure-Python work takes anywhere from 1x to 1.7x its
fastest time, as other tenants load the machine, in phases that last from a
fraction of a second to minutes. Timings taken in a slow phase and in a fast
one differ by more than a program change worth measuring.

So every run times a fixed loop of standard-library Python, which no change
to tnsc can speed up or slow down, next to the program's operations: before
an operation whenever ``INTERVAL_NS`` have passed since the loop last ran.
Each operation's wall time is divided by the median of the loop's last
``WINDOW`` times, which follows the machine's phases, and multiplied by
``REFERENCE_NS``. The result is the operation's time in reference
nanoseconds: what it would take on a machine on which the loop takes exactly
1 ms. The loop does what the program does most (small dicts, tuples and
lists, exact ``Fraction`` sums, a sort with a key, ``json.dumps``), so the
machine's phases slow both alike.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter_ns

#: The loop's time on the reference machine, by definition.
REFERENCE_NS = 1_000_000
#: Least wall time between two timings of the loop.
INTERVAL_NS = 25_000_000
#: How many of the loop's latest times its current speed is the median of.
WINDOW = 5


def reference_loop() -> Fraction:
    table = {}
    total = Fraction(0)
    for i in range(150):
        table[i % 61] = (i, str(i), [i] * 3)
        total += Fraction(1, i % 17 + 1)
    sorted(table.items(), key=lambda item: -item[0])
    json.dumps(table)
    return total


class Reference:
    """The machine's current speed, from the reference loop's latest times."""

    def __init__(self):
        self.recent: deque[int] = deque(maxlen=WINDOW)
        self.times_ns: list[int] = []
        self.scale = 1.0
        self._due_ns = 0
        for _ in range(WINDOW):
            self._due_ns = 0
            self.tick()

    def tick(self) -> None:
        """Time the loop if it is due; call it between operations only."""
        start = perf_counter_ns()
        if start < self._due_ns:
            return
        reference_loop()
        end = perf_counter_ns()
        self.recent.append(end - start)
        self.times_ns.append(end - start)
        self.scale = REFERENCE_NS / statistics.median(self.recent)
        self._due_ns = end + INTERVAL_NS

    def normalize(self, elapsed_ns: int) -> float:
        """Wall nanoseconds to reference nanoseconds at the current speed."""
        return elapsed_ns * self.scale

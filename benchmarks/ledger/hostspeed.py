"""How fast is this host right now, relative to the quiet sandbox?

The sandbox this ledger was built on slows down by 1.3-2x for seconds to
minutes at a time (a busy neighbour on the sibling thread and in the
shared cache; the guest's CPU clock keeps counting through it). The
per-segment minimum in ``run.py`` removes every disturbance shorter than
a run; a run that sits entirely inside a slow phase is still slow as a
whole. For that case two fixed pure-Python kernels are timed between the
repetitions of a run, and host-clock metrics are expressed in CPU
seconds of the *reference* host: measured seconds x :meth:`Probe.speed`.

Two kernels, because a slow phase does not slow all code alike: over 150
s of interleaved sampling here (README, "Why fastest"), a dict/integer
kernel slowed 1.2-1.45x and an allocation/pointer-chasing one 1.6-2.1x
while a ``txn_read`` pass slowed 1.4-1.65x; the geometric mean of the two
kernels' slowdowns tracked the pass within 8 %, either alone missed by
20 %. Each takes a few milliseconds, like the segments it stands for.

The speed is taken from each kernel's *fastest* sample of the run, like
the segments it scales: in a run with any quiet stretch it is 1.0 (within
the probe's own 2-3 % jitter) and changes nothing.
"""

from __future__ import annotations

import gc
import math
import time

# Fastest CPU seconds of each kernel on the quiet reference sandbox
# (Xeon 2.1 GHz guest, CPython 3.11.7). Constants, not measurements of
# the current host: they only fix the unit.
REFERENCE_ARITHMETIC_S = 0.00350
REFERENCE_ALLOCATION_S = 0.00718


def _arithmetic() -> int:
    counts: dict = {}
    for i in range(30_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return len(counts)


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: str, c: dict) -> None:
        self.a = a
        self.b = b
        self.c = c


def _allocation() -> int:
    cells = [_Cell(i, str(i), {"k": i}) for i in range(12_000)]
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell.a & 4095, []).append(cell)
    total = 0
    for group in groups.values():
        for cell in group:
            total += cell.c["k"]
    return total


def _cpu_seconds(kernel) -> float:
    started = time.process_time()
    kernel()
    return time.process_time() - started


class Probe:
    """Keeps the fastest time of each kernel over a run's samples."""

    def __init__(self) -> None:
        self.arithmetic_s = math.inf
        self.allocation_s = math.inf

    def sample(self) -> None:
        """Time each kernel once. Called once per repetition, so that each
        kernel's fastest time is over as many tries as each segment's: in
        a choppy slow phase more tries would find a quiet moment the
        segments did not get."""
        gc.collect()
        gc.disable()
        try:
            self.arithmetic_s = min(self.arithmetic_s, _cpu_seconds(_arithmetic))
            self.allocation_s = min(self.allocation_s, _cpu_seconds(_allocation))
        finally:
            gc.enable()

    def speed(self) -> float:
        """1.0 = the quiet reference host; 0.6 = this run's best moments
        were still 1/0.6 times slower than that."""
        return math.sqrt(
            (REFERENCE_ARITHMETIC_S / self.arithmetic_s)
            * (REFERENCE_ALLOCATION_S / self.allocation_s)
        )

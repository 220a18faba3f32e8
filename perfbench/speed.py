"""Machine-speed reference for normalizing CPU times.

On a shared host the same pure-Python work takes 25% more or less CPU
time from one half-minute to the next (measured here: a fixed Fraction
kernel ran 65 to 105 times a second over 90 s).  A run therefore times
this fixed kernel in short bursts between its operations and scales its
CPU times by ``NOMINAL_S / (mean kernel time)``: times are reported as
CPU seconds at the reference speed, where one kernel call takes
``NOMINAL_S``.  A pass's total uses the mean over the whole pass; a
single decide's latency uses the last few kernel calls before it.  On a
shared 2-vCPU Linux VM this cut the coefficient of variation of a corpus
pass's time from 13% to 1.8%.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

NOMINAL_S = 2.0e-3   # CPU seconds of one kernel call at the reference speed
EVERY_S = 0.05       # CPU seconds of work per kernel call
RECENT = 3           # kernel calls behind the factor of a single operation


def kernel() -> Fraction:
    """Fixed rational arithmetic, the kind of work the exact solvers do."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
    return acc


class Speed:
    """Kernel bursts interleaved with the work of one pass (or set-up)."""

    def __init__(self):
        self.busy = 0.0      # CPU seconds spent in the kernel
        self.calls = 0
        self.recent: deque[float] = deque(maxlen=RECENT)
        self._last = time.process_time() - EVERY_S

    def bursts(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.process_time()
            kernel()
            spent = time.process_time() - t
            self.busy += spent
            self.calls += 1
            self.recent.append(spent)
        self._last = time.process_time()

    def tick(self) -> None:
        """Burst once per EVERY_S of work since the last burst, so long
        operations are followed by proportionally more kernel calls."""
        owed = int((time.process_time() - self._last) / EVERY_S)
        if owed:
            self.bursts(min(owed, 50))

    def factor(self) -> float:
        """Multiply a CPU time measured alongside the bursts by this."""
        if not self.calls:
            self.bursts()
        return NOMINAL_S * self.calls / self.busy

    def local(self) -> float:
        """The factor from the last few kernel calls only, for one short
        operation right after them."""
        if not self.recent:
            self.bursts()
        return NOMINAL_S * len(self.recent) / sum(self.recent)

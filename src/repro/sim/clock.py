"""Virtual time.

Everything in the repro stack runs against a :class:`SimClock` instead of
wall-clock time. The clock only moves when something advances it: the
network charges RPC latencies, drivers advance it between poll cycles, and
benchmarks advance it to model processing cost. This makes every run
deterministic and lets latency experiments finish in milliseconds of real
time.

Times are floats in **milliseconds**, matching the units the paper uses for
commit intervals and end-to-end latencies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple


class SimClock:
    """A manually advanced virtual clock with one-shot timers.

    Timers fire (in timestamp order) whenever the clock is advanced past
    their deadline. They are used for transaction timeouts, group session
    timeouts, streams commit intervals and checkpoint intervals.

    Timers come in two flavours. *Wake* timers (the default) represent
    deadlines after which new work becomes possible — a commit interval
    elapsing, a checkpoint falling due, an async marker write landing — and are
    what :class:`~repro.sim.scheduler.Driver` jumps the clock to when every
    actor is idle. *Housekeeping* timers (``wake=False``) are defensive
    deadlines such as transaction timeouts and group session expiry: they
    still fire during any advance that crosses them, but an idle driver does
    not fast-forward time just to reach them (a fully idle simulation should
    terminate rather than spin through every session timeout).
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        # Current virtual time in milliseconds. A plain attribute, read on
        # every record; only this class assigns it
        # (tests/test_attribute_owner_structure.py).
        self.now = float(start_ms)
        self._timers: List[Tuple[float, int, "Timer"]] = []
        self._seq = itertools.count()

    def advance(self, delta_ms: float) -> None:
        """Move time forward by ``delta_ms`` milliseconds, firing timers.
        Exactly ``advance_to(now + delta_ms)``, without the second call
        while no timer is due."""
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards: {delta_ms}")
        deadline_ms = self.now + delta_ms
        timers = self._timers
        if timers and timers[0][0] <= deadline_ms:
            self.advance_to(deadline_ms)
        else:
            self.now = deadline_ms

    def advance_to(self, deadline_ms: float) -> None:
        """Move time forward to ``deadline_ms``, firing due timers in order."""
        if deadline_ms < self.now:
            raise ValueError(
                f"cannot move time backwards: now={self.now}, to={deadline_ms}"
            )
        while self._timers and self._timers[0][0] <= deadline_ms:
            fire_at, _, timer = heapq.heappop(self._timers)
            # Fire the timer at its own deadline so callbacks observe a
            # consistent "now".
            self.now = max(self.now, fire_at)
            timer._fire()
        # A callback may itself have advanced the clock (e.g. by charging
        # network latency); never rewind below wherever it left us.
        self.now = max(self.now, deadline_ms)

    def schedule(
        self, delay_ms: float, callback: Callable[[], None], wake: bool = True
    ) -> "Timer":
        """Schedule ``callback`` to run ``delay_ms`` from now.

        ``wake=False`` marks the timer as housekeeping: it fires normally
        when time passes its deadline, but idle drivers do not jump the
        clock forward just to reach it. Returns a :class:`Timer` handle
        that can be cancelled.
        """
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        timer = Timer(self, self.now + delay_ms, callback, wake=wake)
        heapq.heappush(self._timers, (timer.deadline, next(self._seq), timer))
        return timer

    def next_wake_deadline(self) -> Optional[float]:
        """Deadline of the earliest pending *wake* timer, or ``None``.

        Cancelled entries at the top of the heap are pruned as a side
        effect; cancelled or housekeeping entries deeper in are skipped
        without being removed.
        """
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        best: Optional[float] = None
        for deadline, _, timer in self._timers:
            if timer.cancelled or not timer.wake:
                continue
            if best is None or deadline < best:
                best = deadline
        return best

    def next_deadline(self) -> float:
        """Deadline of the earliest pending timer of either flavour, or
        ``inf``: an advance that stops short of it fires nothing.

        Unlike :meth:`next_wake_deadline` this counts housekeeping timers,
        which fire during an advance all the same. Cancelled entries at the
        top of the heap are pruned; one deeper in may make the answer
        early, never late.
        """
        timers = self._timers
        while timers and timers[0][2].cancelled:
            heapq.heappop(timers)
        return timers[0][0] if timers else math.inf


class Timer:
    """Handle for a scheduled callback; cancellable."""

    def __init__(
        self,
        clock: SimClock,
        deadline: float,
        callback: Callable[[], None],
        wake: bool = True,
    ):
        self._clock = clock
        self.deadline = deadline
        self.wake = wake
        self._callback: Optional[Callable[[], None]] = callback
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self._callback = None

    @property
    def cancelled(self) -> bool:
        return self._callback is None and not self.fired

    def _fire(self) -> None:
        if self._callback is None:
            return
        callback, self._callback = self._callback, None
        self.fired = True
        callback()

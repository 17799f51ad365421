"""Discrete-event driver coordinating pollable actors on one SimClock.

Before this module existed every engine in the repro drove itself with a
blind polling loop: step, and if nothing happened, tick the clock 1 ms and
try again (``idle_advance_ms``). That wastes thousands of no-op cycles
between commit intervals and makes it impossible to run two engines — say a
Streams app and the checkpoint baseline — against one cluster on one
deterministic timeline.

The :class:`Driver` replaces those loops with standard discrete-event
scheduling. *Actors* (duck-typed: ``poll() -> int`` records processed, plus
an optional ``flush()`` for end-of-run commits) register with the driver;
time-driven behaviour (commit intervals, checkpoint intervals, async
marker writes) registers *wake* timers on the shared
:class:`~repro.sim.clock.SimClock`. One driver cycle polls every actor;
when all of them report no progress the driver flushes pending work and
jumps the clock directly to the next wake deadline instead of creeping
toward it. Idle time is free, and the amount skipped is observable via
:attr:`Driver.idle_skipped_ms`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.sim.clock import SimClock

# After the final flush, transaction markers written asynchronously (the
# coordinator schedules them a few network-RTTs out) must still land for
# committed output to become visible to read_committed consumers. The
# driver settles wake deadlines within this horizon after flushing.
SETTLE_HORIZON_MS = 50.0


class Driver:
    """Runs registered actors to completion on a shared virtual clock.

    An *actor* is any object with ``poll() -> int`` returning how many
    records it processed (0 = idle this cycle). Actors may also expose
    ``flush()`` — called when the driver finds every actor idle, before
    concluding the run — to commit open transactions / emit buffered
    output. Registration order is poll order, so runs are deterministic.
    """

    def __init__(self, clock: SimClock, tracer: Optional[Tracer] = None) -> None:
        self.clock = clock
        # Scheduler-level trace events (idle jumps, flush passes) land on
        # the same timeline as the components'; defaults to a no-op. An
        # explicit None check: Tracer defines __len__, so a tracer with no
        # spans yet is falsy and `tracer or NOOP_TRACER` would discard it.
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self._actors: List[Any] = []
        # Observability: how much work the scheduler did and how much idle
        # time it skipped (the figure benches report these).
        self.cycles = 0
        self.records_processed = 0
        self.idle_jumps = 0
        self.idle_skipped_ms = 0.0
        self.flushes = 0

    # -- actor registry ---------------------------------------------------------------

    def register(self, actor: Any) -> Any:
        """Add an actor (idempotent); returns it for chaining."""
        if actor not in self._actors:
            self._actors.append(actor)
        return actor

    def unregister(self, actor: Any) -> None:
        if actor in self._actors:
            self._actors.remove(actor)

    @property
    def actors(self) -> List[Any]:
        return list(self._actors)

    # -- core cycle -------------------------------------------------------------------

    def poll_all(self) -> int:
        """One scheduler cycle: poll every actor once, in registration order."""
        self.cycles += 1
        processed = 0
        for actor in list(self._actors):
            processed += actor.poll()
        self.records_processed += processed
        return processed

    def flush_all(self) -> None:
        """Ask every actor to commit/emit pending work (if it supports it)."""
        self.flushes += 1
        if self.tracer.enabled:
            self.tracer.event(
                "driver.flush", "driver", "scheduler", category="driver"
            )
        for actor in list(self._actors):
            flush = getattr(actor, "flush", None)
            if flush is not None:
                flush()

    def _jump_to_next_wake(self, limit_ms: float = float("inf")) -> bool:
        """Advance the clock to the next wake deadline (capped at
        ``limit_ms``); returns False when there is nothing to jump to."""
        deadline = self.clock.next_wake_deadline()
        if deadline is None or deadline > limit_ms:
            return False
        skip = max(0.0, deadline - self.clock.now)
        if self.tracer.enabled and skip > 0:
            # Recorded as a span covering the skipped gap, so Perfetto shows
            # idle time as explicit blocks on the driver track.
            span = self.tracer.begin("driver.idle_jump", "driver", "scheduler",
                                     category="driver", skipped_ms=round(skip, 3))
            self.clock.advance_to(deadline)
            span.end()
        else:
            self.clock.advance_to(deadline)
        self.idle_jumps += 1
        self.idle_skipped_ms += skip
        return True

    def _settle(self) -> None:
        """Land near-term async effects (marker writes) after a flush."""
        horizon = self.clock.now + SETTLE_HORIZON_MS
        while self._jump_to_next_wake(limit_ms=horizon):
            pass

    # -- run loops --------------------------------------------------------------------

    def run_until_idle(self, max_cycles: int = 10_000, idle_jump_limit: int = 2) -> int:
        """Poll actors until no work remains, jumping idle gaps.

        Each cycle polls every actor. When a full cycle processes nothing,
        the driver flushes (commits buffered input downstream) and re-polls;
        if still nothing, it jumps the clock to the next wake deadline —
        a pending commit interval, checkpoint, or in-flight marker write —
        and tries again. After ``idle_jump_limit`` consecutive unproductive
        jumps (or when no wake deadline exists) the run concludes with a
        final flush/poll/flush pass so deferred speculative commits and
        their cascading outcomes land. Returns total records processed.
        """
        total = 0
        idle_streak = 0
        for _ in range(max_cycles):
            processed = self.poll_all()
            if processed == 0:
                self.flush_all()
                self._settle()
                processed = self.poll_all()
            if processed == 0:
                if idle_streak >= idle_jump_limit or not self._jump_to_next_wake():
                    break
                idle_streak += 1
            else:
                idle_streak = 0
                total += processed
        # Final pass: a flush can unblock downstream actors (committed
        # markers make read_committed data visible; deferred speculative
        # commits resolve), so poll again and flush once more.
        for _ in range(2):
            self.flush_all()
            self._settle()
            total += self.poll_all()
        self.flush_all()
        self._settle()
        return total

    def run_for(self, duration_ms: float, max_cycles: int = 1_000_000) -> int:
        """Run actors until the clock has advanced ``duration_ms``.

        Idle gaps are jumped to the next wake deadline (or straight to the
        end of the window when no deadline lies within it) rather than
        crept through. Does not conclude with a flush: partial intervals
        stay uncommitted, exactly as a wall-clock run would leave them.
        """
        deadline = self.clock.now + duration_ms
        total = 0
        for _ in range(max_cycles):
            if self.clock.now >= deadline:
                break
            processed = self.poll_all()
            total += processed
            if processed == 0 and self.clock.now < deadline:
                if not self._jump_to_next_wake(limit_ms=deadline):
                    self.idle_skipped_ms += deadline - self.clock.now
                    self.clock.advance_to(deadline)
        return total

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for benchmark reporting."""
        return {
            "cycles": self.cycles,
            "records_processed": self.records_processed,
            "idle_jumps": self.idle_jumps,
            "idle_skipped_ms": round(self.idle_skipped_ms, 3),
            "flushes": self.flushes,
        }

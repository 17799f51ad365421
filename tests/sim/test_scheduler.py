"""Unit tests for the discrete-event driver (repro.sim.scheduler)."""

from repro.sim.clock import SimClock
from repro.sim.scheduler import Driver


class CountdownActor:
    """Processes one record per poll until its budget runs out."""

    def __init__(self, budget: int, log=None, name: str = "actor"):
        self.budget = budget
        self.flushed = 0
        self.log = log if log is not None else []
        self.name = name

    def poll(self) -> int:
        if self.budget <= 0:
            return 0
        self.budget -= 1
        self.log.append(self.name)
        return 1

    def flush(self) -> None:
        self.flushed += 1


class TimerActor:
    """Idle until its wake timer fires; then processes one batch."""

    def __init__(self, clock: SimClock, delay_ms: float, batch: int = 3):
        self.clock = clock
        self.batch = batch
        self._due = False
        clock.schedule(delay_ms, self._on_timer)

    def _on_timer(self) -> None:
        self._due = True

    def poll(self) -> int:
        if not self._due:
            return 0
        self._due = False
        processed, self.batch = self.batch, 0
        return processed


def test_register_is_idempotent_and_ordered():
    driver = Driver(SimClock())
    a, b = CountdownActor(0), CountdownActor(0)
    driver.register(a)
    driver.register(b)
    driver.register(a)
    assert driver._actors == [a, b]
    driver.unregister(a)
    assert driver._actors == [b]
    driver.unregister(a)   # no-op


def test_poll_all_runs_actors_in_registration_order():
    driver = Driver(SimClock())
    log = []
    driver.register(CountdownActor(2, log, "first"))
    driver.register(CountdownActor(1, log, "second"))
    assert driver.poll_all() == 2
    assert log == ["first", "second"]


def test_run_until_idle_drains_work_and_flushes():
    driver = Driver(SimClock())
    actor = CountdownActor(5)
    driver.register(actor)
    processed = driver.run_until_idle()
    assert processed == 5
    assert actor.budget == 0
    # The epilogue flushes so open transactions are never left dangling.
    assert actor.flushed >= 1
    assert driver.records_processed == 5
    assert driver.cycles > 0


def test_run_until_idle_jumps_to_wake_deadline():
    clock = SimClock()
    driver = Driver(clock)
    actor = TimerActor(clock, delay_ms=500.0)
    driver.register(actor)
    processed = driver.run_until_idle()
    # The batch only became processable after the 500 ms wake timer; the
    # driver jumped there instead of creeping millisecond by millisecond.
    assert processed == 3
    assert clock.now >= 500.0
    assert driver.idle_jumps >= 1
    assert driver.idle_skipped_ms >= 500.0
    assert driver.cycles < 20


def test_run_until_idle_ignores_housekeeping_timers():
    clock = SimClock()
    driver = Driver(clock)
    driver.register(CountdownActor(1))
    # A housekeeping (wake=False) timer far in the future must not keep
    # the driver alive once the actors are idle.
    fired = []
    clock.schedule(60_000.0, lambda: fired.append(True), wake=False)
    driver.run_until_idle()
    assert clock.now < 60_000.0
    assert fired == []


def test_run_for_jumps_straight_to_deadline_when_no_timers():
    clock = SimClock()
    driver = Driver(clock)
    driver.register(CountdownActor(0))
    driver.run_for(1_000.0)
    assert clock.now == 1_000.0
    assert driver.idle_skipped_ms >= 999.0


def test_run_for_honours_wake_timer_inside_window():
    clock = SimClock()
    driver = Driver(clock)
    actor = TimerActor(clock, delay_ms=300.0, batch=2)
    driver.register(actor)
    processed = driver.run_for(1_000.0)
    assert processed == 2
    assert clock.now == 1_000.0


def test_run_for_does_not_flush():
    clock = SimClock()
    driver = Driver(clock)
    actor = CountdownActor(1)
    driver.register(actor)
    driver.run_for(100.0)
    assert actor.flushed == 0


def test_stats_shape():
    driver = Driver(SimClock())
    driver.register(CountdownActor(2))
    driver.run_until_idle()
    stats = driver.stats()
    assert set(stats) == {
        "cycles",
        "records_processed",
        "idle_jumps",
        "idle_skipped_ms",
        "flushes",
    }
    assert stats["records_processed"] == 2

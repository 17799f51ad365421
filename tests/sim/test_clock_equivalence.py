"""``SimClock.advance(d)`` is ``advance_to(now + d)``, frame for frame.

``advance`` moves time without visiting the timer heap when its head is
later than the new time and hands over to ``advance_to`` otherwise. Over
random timer heaps — cancelled timers, zero deltas, callbacks that advance
the clock themselves or schedule new timers — both must fire the same
timers in the same order, each seeing the same ``now``, and leave the
same ``now`` after every call.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.clock import SimClock

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

#: What a timer does when it fires.
actions = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=20.0)),
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=15)),
)


@st.composite
def scenarios(draw):
    timers = draw(st.lists(st.tuples(delays, actions, st.booleans()), max_size=16))
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
        min_size=1, max_size=12,
    ))
    return timers, steps


def replay(timers, steps, use_advance):
    """Run one scenario; returns the firing log and ``now`` after each step."""
    clock = SimClock(start_ms=3.0)
    fired = []
    handles = []

    def callback(name, action):
        def fire():
            fired.append((name, clock.now))
            kind = action[0]
            if kind == "advance":
                clock.advance(action[1])
            elif kind == "schedule":
                handles.append(
                    clock.schedule(action[1], callback(f"{name}+", ("none",)))
                )
            elif kind == "cancel" and handles:
                handles[action[1] % len(handles)].cancel()

        return fire

    for number, (delay, action, cancelled) in enumerate(timers):
        handles.append(clock.schedule(delay, callback(str(number), action)))
        if cancelled:
            handles[-1].cancel()
    seen = []
    for delta in steps:
        if use_advance:
            clock.advance(delta)
        else:
            clock.advance_to(clock.now + delta)
        seen.append(clock.now)
    return fired, seen, len(clock._timers)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_advance_equals_advance_to_now_plus_delta(scenario):
    timers, steps = scenario
    assert replay(timers, steps, use_advance=True) == replay(
        timers, steps, use_advance=False
    )


def test_a_delta_that_reaches_the_head_exactly_fires_it():
    clock = SimClock()
    fired = []
    clock.schedule(5.0, lambda: fired.append(clock.now))
    clock.advance(4.0)
    assert fired == []
    clock.advance(1.0)
    assert fired == [5.0] and clock.now == 5.0


def test_a_callback_that_advances_past_the_target_is_not_rewound():
    clock = SimClock()
    clock.schedule(1.0, lambda: clock.advance(10.0))
    clock.advance(2.0)
    assert clock.now == 11.0

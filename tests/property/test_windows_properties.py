"""Property-based tests for window assignment and the metrics histogram."""

from hypothesis import assume, given, settings, strategies as st

from repro.metrics.registry import Histogram
from repro.streams.windows import TimeWindows

sizes = st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False)
timestamps = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(sizes, timestamps)
@settings(max_examples=100, deadline=None)
def test_tumbling_assignment_contains_timestamp(size, ts):
    windows = TimeWindows.of(size)
    assigned = windows.windows_for(ts)
    assert len(assigned) == 1
    assert assigned[0].contains(ts)


@given(sizes, st.integers(min_value=1, max_value=10), timestamps)
@settings(max_examples=100, deadline=None)
def test_hopping_assignment_all_contain_timestamp(size, hops, ts):
    advance = size / hops
    windows = TimeWindows.of(size).advance_by(advance)
    assigned = windows.windows_for(ts)
    assert assigned, "every timestamp belongs to at least one window"
    assert len(assigned) <= hops + 1
    for window in assigned:
        assert window.contains(ts)
    # Windows are sorted and distinct.
    starts = [w.start for w in assigned]
    assert starts == sorted(set(starts))


@given(sizes, timestamps, timestamps)
@settings(max_examples=100, deadline=None)
def test_same_window_iff_same_bucket(size, a, b):
    windows = TimeWindows.of(size)
    wa = windows.windows_for(a)[0]
    wb = windows.windows_for(b)[0]
    assert (wa == wb) == (a // size == b // size)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_histogram_percentiles_are_bounded_and_monotone(values):
    hist = Histogram("h")
    for v in values:
        hist.observe(v)
    assert min(values) <= hist.percentile(0) <= hist.percentile(50)
    assert hist.percentile(50) <= hist.percentile(99) <= hist.percentile(100)
    assert hist.percentile(100) == hist.max()
    # Tiny float tolerance: the mean of N equal values can differ from
    # them by one ulp.
    span = max(abs(min(values)), abs(hist.max()), 1.0)
    eps = 1e-9 * span
    assert min(values) - eps <= hist.mean() <= hist.max() + eps

"""Property-based tests on streams-layer invariants.

The central one is *revision convergence* (Section 5): for any multiset of
records delivered in any order within the grace period, the final window
state — and hence the final emitted results — equal those of an in-order
delivery of the same records.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.streams.aggregates import (
    StreamAggregateProcessor,
    WindowedAggregateProcessor,
    count_aggregator,
    count_initializer,
)
from repro.streams.records import StreamRecord
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore
from repro.streams.windows import TimeWindows

from tests.streams.harness import forwarded_records, init_processor

record_specs = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def run_windowed(records, grace_ms=10_000.0):
    windows = TimeWindows.of(50.0).grace(grace_ms)
    store = InMemoryWindowStore("w", retention_ms=windows.retention_ms)
    processor = WindowedAggregateProcessor(
        "w", windows, count_initializer, count_aggregator
    )
    processor, task = init_processor(processor, stores={"w": store})
    for key, ts in records:
        task.stream_time = max(task.stream_time, ts)
        processor.process(StreamRecord(key=key, value=1, timestamp=ts))
    return dict(store.all()), processor


@given(record_specs, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_revision_convergence_under_reordering(records, seed):
    """Shuffled delivery converges to the in-order result when the grace
    period covers the full disorder."""
    in_order = sorted(records, key=lambda kv: kv[1])
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    state_a, _ = run_windowed(in_order)
    state_b, proc_b = run_windowed(shuffled)
    assert state_a == state_b
    assert proc_b.dropped_records == 0


@given(record_specs)
@settings(max_examples=80, deadline=None)
def test_windowed_counts_match_batch_computation(records):
    """Streaming window counts equal an offline (batch) group-by."""
    state, _ = run_windowed(sorted(records, key=lambda kv: kv[1]))
    expected = {}
    for key, ts in records:
        start = (ts // 50.0) * 50.0
        expected[(key, start)] = expected.get((key, start), 0) + 1
    assert state == expected


@given(record_specs)
@settings(max_examples=60, deadline=None)
def test_change_stream_replays_to_final_state(records):
    """Applying the emitted Change stream (last write wins per key) yields
    exactly the final store state — the contract downstream tables rely on."""
    store = InMemoryKeyValueStore("s")
    processor = StreamAggregateProcessor(
        "s", count_initializer, count_aggregator
    )
    processor, task = init_processor(processor, stores={"s": store})
    for i, (key, ts) in enumerate(records):
        task.stream_time = max(task.stream_time, ts)
        processor.process(StreamRecord(key=key, value=1, timestamp=ts))
    replayed = {}
    for record in forwarded_records(task):
        replayed[record.key] = record.value.new
    assert replayed == dict(store.all())


@given(record_specs, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_deterministic_given_same_input_order(records, seed):
    """Same input order -> identical emissions (Section 7: determinism
    for deterministic processors)."""
    order = list(records)
    random.Random(seed).shuffle(order)
    _, proc_a = run_windowed(order)
    _, proc_b = run_windowed(order)
    assert proc_a.revisions_emitted == proc_b.revisions_emitted
    assert proc_a.dropped_records == proc_b.dropped_records

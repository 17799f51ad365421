"""Aggregation processors: counts, reduces, revision Changes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.streams.aggregates import (
    StreamAggregateProcessor,
    WindowedAggregateProcessor,
    count_aggregator,
    count_initializer,
    reduce_adapter,
    reduce_initializer,
)
from repro.streams.processor import Processor, ProcessorContext
from repro.streams.records import Change, ColumnChunk, StreamRecord
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore
from repro.streams.windows import TimeWindows

from tests.streams.harness import FakeTask, forwarded_records, init_processor


def feed(processor, task, key, value, ts):
    task.stream_time = max(task.stream_time, float(ts))
    processor.process(StreamRecord(key=key, value=value, timestamp=float(ts)))


class TestStreamAggregate:
    def make(self):
        store = InMemoryKeyValueStore("agg")
        processor = StreamAggregateProcessor(
            "agg", count_initializer, count_aggregator
        )
        processor, task = init_processor(processor, stores={"agg": store})
        return processor, task, store

    def test_counts_accumulate_per_key(self):
        processor, task, store = self.make()
        feed(processor, task, "a", 1, 0)
        feed(processor, task, "a", 1, 1)
        feed(processor, task, "b", 1, 2)
        assert store.get("a") == 2
        assert store.get("b") == 1

    def test_every_update_emits_change_with_old(self):
        processor, task, _ = self.make()
        feed(processor, task, "a", 1, 0)
        feed(processor, task, "a", 1, 1)
        changes = [r.value for r in forwarded_records(task)]
        assert changes == [Change(1, None), Change(2, 1)]

    def test_none_keys_skipped(self):
        processor, task, store = self.make()
        feed(processor, task, None, 1, 0)
        assert forwarded_records(task) == []
        assert store.approximate_num_entries() == 0

    def test_reduce_adapter_first_value_initializes(self):
        store = InMemoryKeyValueStore("agg")
        processor = StreamAggregateProcessor(
            "agg", reduce_initializer, reduce_adapter(lambda acc, v: acc + v)
        )
        processor, task = init_processor(processor, stores={"agg": store})
        feed(processor, task, "a", 10, 0)
        feed(processor, task, "a", 5, 1)
        assert store.get("a") == 15
        changes = [r.value for r in forwarded_records(task)]
        assert changes[0].new == 10


def none_on_zero(key, value, aggregate):
    """An aggregate that becomes ``None`` on a zero, so that the key's next
    update starts from the initializer again."""
    return None if value == 0 else aggregate + (value,)


class ChunkTask(FakeTask):
    """Keeps every chunk a processor hands on, as it was handed on."""

    def __init__(self, stores):
        super().__init__(stores)
        self.chunks = []

    def process_chunk_at(self, node_name, chunk):
        self.chunks.append(chunk)


def run_chunk(chunk, stored, stream_time, walk):
    """One chunk through a fresh none-on-zero aggregate over a store holding
    ``stored``, as its own ``process_batch`` or as the base walk; returns
    what it forwarded (five columns, stream time last), the store and the
    forwarded chunks."""
    store = InMemoryKeyValueStore("agg")
    for key, value in stored.items():
        store.put(key, value)
    task = ChunkTask({"agg": store})
    task.stream_time = stream_time
    processor = StreamAggregateProcessor("agg", tuple, none_on_zero)
    processor.init(ProcessorContext(task, "agg", ["child"], ["agg"]))
    if walk:
        Processor.process_batch(processor, chunk)
        processor.context.drain()
    else:
        processor.process_batch(chunk)
    columns = [[] for _ in range(5)]
    for out in task.chunks:
        for column, values in zip(
            columns,
            (out.keys, out.values, out.timestamps, out.headers,
             out.stream_times_from(stream_time)),
        ):
            column.extend(values)
    return columns, dict(store._data), task.chunks


chunk_records = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", None]),
        st.integers(min_value=-2, max_value=2),
        st.floats(min_value=0.0, max_value=50.0),
    ),
    min_size=1,
    max_size=20,
)


class TestStreamAggregateChunk:
    @given(
        chunk_records,
        st.dictionaries(st.sampled_from(["a", "b"]), st.just((7,))),
        st.floats(min_value=-10.0, max_value=40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_grouped_scan_equals_the_walk(self, records, stored, stream_time):
        """Null keys interleaved, keys already in the store, aggregates that
        turn ``None`` mid-chunk: the same Changes at the same positions,
        each with the stream time the walk saw, and the same store."""
        keys, values, timestamps = (list(column) for column in zip(*records))
        headers = [{"n": i} for i in range(len(keys))]
        chunk = ColumnChunk(keys, values, timestamps, headers)
        scanned, scanned_store, _ = run_chunk(chunk, stored, stream_time, False)
        walked, walked_store, _ = run_chunk(chunk, stored, stream_time, True)
        assert scanned == walked
        assert scanned_store == walked_store

    def test_columns_travel_on_by_reference_without_null_keys(self):
        chunk = ColumnChunk(["a", "b", "a"], [1, 2, 3], [1.0, 2.0, 3.0],
                            [{}, {}, {}], stream_times=[5.0, 5.0, 5.0])
        _, _, (out,) = run_chunk(chunk, {}, 0.0, walk=False)
        assert out.keys is chunk.keys and out.timestamps is chunk.timestamps
        assert out.headers is chunk.headers
        assert out.stream_times is chunk.stream_times
        assert out.values == [Change((1,), None), Change((2,), None),
                              Change((1, 3), (1,))]
        assert all(type(change) is Change for change in out.values)


class TestWindowedAggregateEdges:
    def make(self, windows=None):
        windows = windows or TimeWindows.of(10).grace(5)
        store = InMemoryWindowStore("agg", retention_ms=windows.retention_ms)
        processor = WindowedAggregateProcessor(
            "agg", windows, count_initializer, count_aggregator
        )
        processor, task = init_processor(processor, stores={"agg": store})
        return processor, task, store

    def test_hopping_windows_update_all_overlaps(self):
        windows = TimeWindows.of(10).advance_by(5).grace(100)
        processor, task, store = self.make(windows)
        feed(processor, task, "k", 1, 7)
        assert store.fetch("k", 0) == 1
        assert store.fetch("k", 5) == 1

    def test_exactly_at_grace_boundary_still_accepted(self):
        processor, task, store = self.make()
        feed(processor, task, "k", 1, 20)    # stream time 20, bound = 15
        feed(processor, task, "k", 1, 15)    # window start 10 < 15? yes-drop
        assert processor.dropped_records == 1
        feed(processor, task, "k", 1, 16)    # window start 10 < 15 drop too
        assert processor.dropped_records == 2

    def test_window_at_boundary_retained(self):
        processor, task, store = self.make()
        feed(processor, task, "k", 1, 20)
        feed(processor, task, "k", 1, 25)    # bound = 20; window 20 kept
        assert store.fetch("k", 20) == 2

    def test_distinct_keys_distinct_windows(self):
        processor, task, store = self.make()
        feed(processor, task, "a", 1, 0)
        feed(processor, task, "b", 1, 0)
        assert store.fetch("a", 0) == 1
        assert store.fetch("b", 0) == 1

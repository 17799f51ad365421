"""Join processors in isolation: the Section 5 emission rules."""

import pytest

from repro.streams.joins import (
    JoinWindows,
    StreamJoinSideProcessor,
    StreamTableJoinProcessor,
    TableTableJoinProcessor,
)
from repro.streams.records import Change, ColumnChunk, StreamRecord
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore

from tests.streams.harness import (
    EagerContext,
    FakeTask,
    forwarded_records,
    init_processor,
)


def make_stream_join(windows, left_outer=False, right_outer=False):
    """Two join-side processors sharing stores and one fake task."""
    left_store = InMemoryWindowStore("L", retention_ms=windows.retention_ms)
    right_store = InMemoryWindowStore("R", retention_ms=windows.retention_ms)
    task = FakeTask({"L": left_store, "R": right_store})
    joiner = lambda a, b: (a, b)
    left = StreamJoinSideProcessor("L", "R", windows, joiner, True, left_outer)
    right = StreamJoinSideProcessor("R", "L", windows, joiner, False, right_outer)
    for proc in (left, right):
        ctx = EagerContext(task, "join", ["out"], ["L", "R"])
        proc.init(ctx)
    return left, right, task


def feed(task, proc, key, value, ts):
    task.stream_time = max(task.stream_time, float(ts))
    proc.process(StreamRecord(key=key, value=value, timestamp=float(ts)))


class TestStreamStreamInner:
    def test_match_within_window(self):
        left, right, task = make_stream_join(JoinWindows.of(10).grace(5))
        feed(task, left, "k", "a", 0)
        feed(task, right, "k", "b", 5)
        assert [r.value for r in forwarded_records(task)] == [("a", "b")]

    def test_no_match_outside_window(self):
        left, right, task = make_stream_join(JoinWindows.of(10).grace(5))
        feed(task, left, "k", "a", 0)
        feed(task, right, "k", "b", 50)
        assert forwarded_records(task) == []

    def test_different_keys_do_not_join(self):
        left, right, task = make_stream_join(JoinWindows.of(10).grace(5))
        feed(task, left, "k1", "a", 0)
        feed(task, right, "k2", "b", 1)
        assert forwarded_records(task) == []

    def test_multiple_matches_all_emitted(self):
        left, right, task = make_stream_join(JoinWindows.of(10).grace(5))
        feed(task, left, "k", "a1", 0)
        feed(task, left, "k", "a2", 2)
        feed(task, right, "k", "b", 5)
        values = sorted(r.value for r in forwarded_records(task))
        assert values == [("a1", "b"), ("a2", "b")]

    def test_out_of_order_record_still_joins_within_grace(self):
        left, right, task = make_stream_join(JoinWindows.of(10).grace(100))
        feed(task, left, "k", "a", 50)
        feed(task, right, "k", "b", 45)   # out-of-order but within window
        assert [r.value for r in forwarded_records(task)] == [("a", "b")]


class TestStreamStreamLeft:
    def test_unmatched_left_held_until_window_closes(self):
        """The paper's key example: (a, null) must NOT be emitted eagerly
        into an append-only stream; it waits for window + grace."""
        left, right, task = make_stream_join(
            JoinWindows.of(10).grace(5), left_outer=True
        )
        feed(task, left, "k", "a", 0)
        assert forwarded_records(task) == []          # held, not (a, null)
        # Delayed b arrives within the window: only the true join emits.
        feed(task, right, "k", "b", 8)
        assert [r.value for r in forwarded_records(task)] == [("a", "b")]
        # Even when the window finally closes, no spurious (a, null).
        feed(task, left, "k2", "zzz", 1000)
        values = [r.value for r in forwarded_records(task)]
        assert ("a", None) not in values

    def test_unmatched_left_emitted_after_close(self):
        left, right, task = make_stream_join(
            JoinWindows.of(10).grace(5), left_outer=True
        )
        feed(task, left, "k", "a", 0)
        feed(task, left, "k2", "later", 100)   # advances stream time
        values = [r.value for r in forwarded_records(task)]
        assert ("a", None) in values
        assert left.unmatched_results == 1

    def test_unmatched_right_not_emitted_in_left_join(self):
        left, right, task = make_stream_join(
            JoinWindows.of(10).grace(5), left_outer=True
        )
        feed(task, right, "k", "b", 0)
        feed(task, right, "k2", "later", 100)
        assert (None, "b") not in [r.value for r in forwarded_records(task)]


class TestStreamStreamOuter:
    def test_both_sides_emit_unmatched_after_close(self):
        left, right, task = make_stream_join(
            JoinWindows.of(10).grace(5), left_outer=True, right_outer=True
        )
        feed(task, left, "k1", "a", 0)
        feed(task, right, "k2", "b", 1)
        feed(task, left, "k3", "x", 200)
        feed(task, right, "k4", "y", 200)
        values = [r.value for r in forwarded_records(task)]
        assert ("a", None) in values
        assert (None, "b") in values


class TestStreamTableJoin:
    def make(self, left_join=False):
        table = InMemoryKeyValueStore("T")
        processor = StreamTableJoinProcessor("T", lambda v, t: (v, t), left_join)
        processor, task = init_processor(processor, stores={"T": table})
        return processor, task, table

    def test_enrichment(self):
        processor, task, table = self.make()
        table.put("k", "ctx")
        feed(task, processor, "k", "event", 0)
        assert [r.value for r in forwarded_records(task)] == [("event", "ctx")]

    def test_inner_drops_missing_table_row(self):
        processor, task, _ = self.make()
        feed(task, processor, "k", "event", 0)
        assert forwarded_records(task) == []

    def test_left_join_emits_null(self):
        processor, task, _ = self.make(left_join=True)
        feed(task, processor, "k", "event", 0)
        assert [r.value for r in forwarded_records(task)] == [("event", None)]

    @pytest.mark.parametrize("left_join", [False, True], ids=["inner", "left"])
    def test_a_chunk_is_one_store_call_and_joins_like_its_records(self, left_join):
        keys = ["k", None, "gone", "k", "j", None, "gone"]
        timestamps = [float(i) for i in range(len(keys))]

        def run(by_chunk):
            processor, task, table = self.make(left_join)
            table.put("k", "ctx")
            table.put("j", "other")
            calls = []
            for name in ("get", "get_many"):
                def spy(*args, _name=name, _method=getattr(table, name)):
                    calls.append(_name)
                    return _method(*args)
                setattr(table, name, spy)
            if by_chunk:
                processor.process_batch(ColumnChunk(
                    keys, list(range(len(keys))), timestamps, [{}] * len(keys)
                ))
            else:
                for i, (key, timestamp) in enumerate(zip(keys, timestamps)):
                    feed(task, processor, key, i, timestamp)
            out = [(r.key, r.value, r.timestamp) for r in forwarded_records(task)]
            return out, calls

        by_chunk, chunk_calls = run(by_chunk=True)
        by_record, record_calls = run(by_chunk=False)
        assert chunk_calls == ["get_many"]
        assert record_calls == ["get"] * 5     # null keys look nothing up
        assert by_chunk == by_record
        assert [key for key, _, _ in by_chunk] == (
            ["k", "gone", "k", "j", "gone"] if left_join else ["k", "k", "j"]
        )


class TestTableTableJoin:
    def make(self, left_outer=False, right_outer=False):
        left_store = InMemoryKeyValueStore("L")
        right_store = InMemoryKeyValueStore("R")
        task = FakeTask({"L": left_store, "R": right_store})
        joiner = lambda a, b: (a, b)
        this = TableTableJoinProcessor("R", joiner, True, left_outer, right_outer)
        that = TableTableJoinProcessor("L", joiner, False, left_outer, right_outer)
        for proc in (this, that):
            proc.init(EagerContext(task, "ttj", ["out"], ["L", "R"]))
        return this, that, left_store, right_store, task

    def test_paper_amendment_sequence(self):
        """Section 5's table-table left-join: (a, null) then (a, b) is a
        valid output sequence — the second record amends the first."""
        this, that, left_store, right_store, task = self.make(left_outer=True)
        left_store.put("k", "a")
        task.stream_time = 0
        this.process(StreamRecord(key="k", value=Change("a", None), timestamp=0))
        right_store.put("k", "b")
        that.process(StreamRecord(key="k", value=Change("b", None), timestamp=1))
        values = [r.value for r in forwarded_records(task)]
        assert values[0] == Change(("a", None), None)       # speculative
        assert values[1].new == ("a", "b")                  # amendment

    def test_inner_join_waits_for_both_sides(self):
        this, that, left_store, right_store, task = self.make()
        left_store.put("k", "a")
        this.process(StreamRecord(key="k", value=Change("a", None), timestamp=0))
        assert forwarded_records(task) == []
        right_store.put("k", "b")
        that.process(StreamRecord(key="k", value=Change("b", None), timestamp=1))
        assert [r.value.new for r in forwarded_records(task)] == [("a", "b")]

    def test_deletion_retracts_join_result(self):
        this, that, left_store, right_store, task = self.make()
        left_store.put("k", "a")
        right_store.put("k", "b")
        this.process(StreamRecord(key="k", value=Change("a", None), timestamp=0))
        # Left side deleted: Change(None, "a").
        left_store.delete("k")
        this.process(StreamRecord(key="k", value=Change(None, "a"), timestamp=1))
        last = forwarded_records(task)[-1].value
        assert last.new is None
        assert last.old == ("a", "b")


class TestJoinWindowsConfig:
    def test_of_symmetric(self):
        w = JoinWindows.of(10)
        assert w.before_ms == w.after_ms == 10

    def test_retention(self):
        assert JoinWindows.of(10).grace(5).retention_ms == 25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JoinWindows.of(-1)
        with pytest.raises(ValueError):
            JoinWindows.of(1).grace(-1)

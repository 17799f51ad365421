"""The suppress operator: revision consolidation."""

import pytest

from repro.streams.records import Change, ColumnChunk, StreamRecord
from repro.streams.suppress import SuppressProcessor, Suppressed
from repro.streams.windows import Window, Windowed

from tests.streams.harness import forwarded_records, init_processor


def change_record(key, new, old, ts):
    return StreamRecord(key=key, value=Change(new, old), timestamp=float(ts))


def feed(processor, task, record):
    task.stream_time = max(task.stream_time, record.timestamp)
    processor.process(record)


class TestUntilWindowCloses:
    def make(self, grace=10.0):
        processor = SuppressProcessor(Suppressed.until_window_closes(), grace_ms=grace)
        return init_processor(processor)

    def test_holds_until_window_plus_grace(self):
        processor, task = self.make(grace=10)
        key = Windowed("k", Window(0, 5))
        feed(processor, task, change_record(key, 1, None, 2))
        feed(processor, task, change_record(key, 2, 1, 3))
        assert forwarded_records(task) == []
        # Stream time reaches window end (5) + grace (10) via another key.
        other = Windowed("k", Window(15, 20))
        feed(processor, task, change_record(other, 1, None, 15))
        out = forwarded_records(task)
        assert len(out) == 1
        assert out[0].key == key
        assert out[0].value == Change(2, None)   # consolidated final result

    def test_emits_once_per_window(self):
        processor, task = self.make(grace=0)
        key = Windowed("k", Window(0, 5))
        feed(processor, task, change_record(key, 3, None, 1))
        feed(processor, task, change_record(Windowed("k", Window(5, 10)), 1, None, 5))
        assert [r.key for r in forwarded_records(task)] == [key]
        assert processor.records_emitted == 1

    def test_windows_closing_together_emit_in_buffer_order(self):
        """A late record opened [0, 5) after [5, 10) was buffered; both
        close on one record and leave first-buffered first, not
        earliest-closing first."""
        processor, task = self.make(grace=10)
        later = Windowed("k", Window(5, 10))
        earlier = Windowed("k", Window(0, 5))
        feed(processor, task, change_record(later, 1, None, 6))
        feed(processor, task, change_record(earlier, 1, None, 4))
        feed(processor, task, change_record(later, 2, 1, 7))
        assert forwarded_records(task) == []
        feed(processor, task, change_record(Windowed("k", Window(95, 100)), 1, None, 99))
        assert [r.key for r in forwarded_records(task)] == [later, earlier]
        assert [r.value for r in forwarded_records(task)] == [
            Change(2, None), Change(1, None)
        ]

    def test_chunk_emits_at_each_records_stream_time(self):
        """process_batch judges every record against the stream time that
        came down with it, not against the timestamps it was forwarded: the
        second record's stream time (19, set by a record dropped upstream)
        closes [0, 5) even though no forwarded timestamp reaches 15."""
        processor, task = self.make(grace=10)
        first = Windowed("k", Window(0, 5))
        second = Windowed("k", Window(5, 10))
        chunks = []
        task.process_chunk_at = lambda node, chunk: chunks.append(chunk)
        processor.process_batch(
            ColumnChunk(
                [first, second],
                [Change(1, None), Change(1, None)],
                [2.0, 7.0],
                [{}, {}],
                stream_times=[2.0, 19.0],
            )
        )
        (out,) = chunks
        assert out.keys == [first]
        assert out.values == [Change(1, None)]
        assert out.stream_times == [19.0]
        assert list(processor._buffer) == [second]

    def test_requires_windowed_keys(self):
        processor, task = self.make()
        with pytest.raises(TypeError):
            feed(processor, task, change_record("plain-key", 1, None, 100))

    def test_commit_does_not_flush_final_mode(self):
        processor, task = self.make(grace=10)
        feed(processor, task, change_record(Windowed("k", Window(0, 5)), 1, None, 2))
        processor.on_commit()
        assert forwarded_records(task) == []


class TestUntilTimeLimit:
    def make(self, limit=100.0):
        processor = SuppressProcessor(Suppressed.until_time_limit(limit))
        return init_processor(processor)

    def test_buffers_within_limit(self):
        processor, task = self.make(limit=100)
        feed(processor, task, change_record("k", 1, None, 0))
        feed(processor, task, change_record("k", 2, 1, 50))
        assert forwarded_records(task) == []
        assert processor.records_suppressed == 1

    def test_emits_after_limit(self):
        processor, task = self.make(limit=100)
        feed(processor, task, change_record("k", 1, None, 0))
        feed(processor, task, change_record("k", 2, 1, 120))
        out = forwarded_records(task)
        assert len(out) == 1
        assert out[0].value == Change(2, None)

    def test_commit_flushes_time_limit_mode(self):
        """Commit closes the consolidation window (Expedia's setting:
        suppression caching flushed with the 1500 ms commit)."""
        processor, task = self.make(limit=1_000_000)
        feed(processor, task, change_record("k", 5, None, 0))
        processor.on_commit()
        out = forwarded_records(task)
        assert [r.value for r in out] == [Change(5, None)]

    def test_consolidated_change_spans_run(self):
        processor, task = self.make(limit=10)
        feed(processor, task, change_record("k", 1, 0, 0))
        feed(processor, task, change_record("k", 2, 1, 1))
        processor.on_commit()
        (out,) = forwarded_records(task)
        assert out.value == Change(2, 0)   # old is the pre-run value

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Suppressed.until_time_limit(-1)


def test_suppression_reduces_downstream_volume():
    """The quantitative point of Section 5: N revisions per key collapse
    to ~1 emission."""
    processor, task = init_processor(
        SuppressProcessor(Suppressed.until_time_limit(1_000_000))
    )
    for i in range(100):
        feed(processor, task, change_record("k", i + 1, i, i))
    processor.on_commit()
    assert len(forwarded_records(task)) == 1
    assert processor.records_suppressed == 99

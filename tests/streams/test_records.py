"""StreamRecord copies and the ColumnChunk stream-time column."""

import dataclasses

from repro.streams.records import ColumnChunk, StreamRecord


def test_with_copies_change_one_field_and_share_headers():
    record = StreamRecord(key="k", value=1, timestamp=5.0, headers={"h": 1})
    for copy, changed in (
        (record.with_kv("k2", 2), {"key": "k2", "value": 2}),
        (record.with_value(2), {"value": 2}),
    ):
        assert copy == dataclasses.replace(record, **changed)
        assert copy is not record
        assert copy.headers is record.headers


def chunk(timestamps, stream_times=None):
    n = len(timestamps)
    return ColumnChunk(
        list(range(n)), list(range(n)), timestamps, [{}] * n, stream_times
    )


def test_stream_times_default_to_the_running_maximum():
    assert chunk([5.0, 3.0, 8.0, 7.0]).stream_times_from(4.0) == [5.0, 5.0, 8.0, 8.0]
    assert chunk([1.0, 2.0]).stream_times_from(10.0) == [10.0, 10.0]
    assert chunk([1.0]).stream_times_from(float("-inf")) == [1.0]
    assert chunk([]).stream_times_from(3.0) == []


def test_explicit_stream_times_win_over_timestamps():
    carried = chunk([1.0, 2.0], stream_times=[9.0, 9.5])
    assert carried.stream_times_from(0.0) == [9.0, 9.5]


def test_take_keeps_the_stream_time_of_dropped_positions():
    """Position 1 (timestamp 9) is dropped, but the record after it was
    still processed at stream time 9."""
    taken = chunk([5.0, 9.0, 6.0]).take([0, 2], 4.0)
    assert taken.keys == [0, 2]
    assert taken.timestamps == [5.0, 6.0]
    assert taken.stream_times == [5.0, 9.0]

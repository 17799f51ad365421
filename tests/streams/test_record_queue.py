"""Deterministic record choice across a task's source partitions:
``next_chunk`` hands out runs, and the runs laid end to end are the
timestamp-ordered merge a record-at-a-time choice would produce."""

from repro.broker.partition import TopicPartition
from repro.streams.runtime.record_queue import PartitionGroup, RecordQueue

from tests.streams.harness import merge_by_timestamp


def push(target, tp, batches, next_offset=0):
    """Enqueue ``batches`` (lists of (timestamp, value)) on ``tp``, one
    cursor per batch, through ``PartitionGroup.add_columns`` or — for a
    bare queue — ``RecordQueue.push_columns``."""
    for batch in batches:
        n = len(batch)
        columns = (
            ["k"] * n,
            [value for _, value in batch],
            [float(ts) for ts, _ in batch],
            [{} for _ in batch],
            list(range(next_offset, next_offset + n)),
        )
        if isinstance(target, PartitionGroup):
            target.add_columns(tp, *columns)
        else:
            target.push_columns(*columns)
        next_offset += n


def drain(group):
    """Every chunk the group hands out, flattened to (tp, timestamp,
    value) — plus the chunks themselves as (tp, size, last_offset)."""
    records, chunks = [], []
    while True:
        item = group.next_chunk()
        if item is None:
            return records, chunks
        tp, chunk, last_offset = item
        assert len(chunk) > 0
        chunks.append((tp, len(chunk), last_offset))
        records.extend(
            (tp, ts, value) for ts, value in zip(chunk.timestamps, chunk.values)
        )


def reference_merge(queues):
    """``queues`` maps tp -> flat FIFO list of (timestamp, value)."""
    return [
        (tp, float(ts), value)
        for tp, (ts, value) in merge_by_timestamp(queues, lambda item: item[0])
    ]


def test_queue_is_fifo():
    tp = TopicPartition("t", 0)
    group = PartitionGroup([tp])
    # A lower timestamp that arrived later stays behind, within a batch
    # and across batches.
    push(group, tp, [[(5, "a"), (1, "b")], [(0, "c")]])
    records, chunks = drain(group)
    assert [value for _, _, value in records] == ["a", "b", "c"]
    # A single-input task takes each fetched batch whole.
    assert chunks == [(tp, 2, 1), (tp, 1, 2)]


def test_head_timestamp_empty():
    queue = RecordQueue(TopicPartition("t", 0))
    assert queue.head_timestamp() is None
    assert queue.head_cursor() is None
    push(queue, queue.tp, [[(7, "v")]])
    assert queue.head_timestamp() == 7.0
    assert PartitionGroup([queue.tp]).next_chunk() is None


def test_group_picks_smallest_head_timestamp():
    tps = [TopicPartition("a", 0), TopicPartition("b", 0)]
    group = PartitionGroup(tps)
    push(group, tps[0], [[(10, "late")]])
    push(group, tps[1], [[(5, "early")]])
    records, _ = drain(group)
    assert [value for _, _, value in records] == ["early", "late"]
    assert group.next_chunk() is None


def test_group_interleaves_by_timestamp():
    tps = [TopicPartition("a", 0), TopicPartition("b", 0)]
    queues = {
        tps[0]: [(1, "a1"), (4, "a4"), (7, "a7"), (8, "a8")],
        tps[1]: [(2, "b2"), (3, "b3"), (9, "b9"), (6, "b6")],   # 6: out of order
    }
    group = PartitionGroup(tps)
    push(group, tps[0], [queues[tps[0]][:3], queues[tps[0]][3:]])
    push(group, tps[1], [queues[tps[1]]], next_offset=40)
    records, chunks = drain(group)
    assert records == reference_merge(queues)
    assert [ts for _, ts, _ in records] == [1, 2, 3, 4, 7, 8, 9, 6]
    # Runs are maximal up to a fetch-batch boundary, and each names the
    # offset to commit past: a1 | b2 b3 | a4 a7 | a8 | b9 b6.
    assert chunks == [
        (tps[0], 1, 0), (tps[1], 2, 41), (tps[0], 2, 2),
        (tps[0], 1, 3), (tps[1], 2, 43),
    ]


def test_tie_broken_by_partition_for_determinism():
    tps = [TopicPartition("b", 0), TopicPartition("a", 0)]
    queues = {
        tps[0]: [(5, "from-b"), (5, "b-again"), (6, "b-6")],
        tps[1]: [(5, "from-a"), (6, "a-6"), (6, "a-6-again")],
    }
    group = PartitionGroup(tps)
    for tp in tps:
        push(group, tp, [queues[tp]])
    records, _ = drain(group)
    assert records[0][2] == "from-a"      # sorted partition order wins ties
    assert records == reference_merge(queues)
    # A run continues through a tie its queue wins and stops at one it loses.
    assert [value for _, _, value in records] == [
        "from-a", "from-b", "b-again", "a-6", "a-6-again", "b-6",
    ]


def test_buffered_counts():
    tps = [TopicPartition("a", 0), TopicPartition("b", 0)]
    group = PartitionGroup(tps)
    assert group.buffered() == 0
    push(group, tps[0], [[(1, "x"), (5, "y")]])
    push(group, tps[1], [[(3, "z")]])
    assert group.buffered() == 3
    group.next_chunk()                     # x alone: z (3) comes before y (5)
    assert group.buffered() == 2
    group.add_columns(tps[0], [], [], [], [], [])     # an empty batch is no cursor
    assert group.buffered() == 2
    drain(group)
    assert group.buffered() == 0

"""What the log stores: the batches it is given, shared and never mutated.

Structural tests (no clock): appending a slab, appending a marker, syncing
followers and the columnar read cost the same number of Python bytecodes
for a 10-record batch as for a 1 000-record one and build no ``Record``;
followers hold the leader's stored batches by identity, and whatever cuts
inside a shared batch copies instead of writing to it.
"""

import sys

from repro.broker.partition import PartitionState, TopicPartition
from repro.log.columnar import ColumnarSlab
from repro.log.partition_log import PartitionLog
from repro.log.record import ABORT_MARKER, COMMIT_MARKER, Record


def slab(n, pid=-1, sequence=-1, transactional=False, key=None):
    return ColumnarSlab(
        [key if key is not None else i for i in range(n)],
        [f"v{i}" for i in range(n)],
        [float(i) for i in range(n)],
        [{} for _ in range(n)],
        producer_id=pid,
        producer_epoch=0 if pid >= 0 else -1,
        base_sequence=sequence,
        is_transactional=transactional,
    )


def opcodes(fn) -> int:
    """Python bytecodes executed by ``fn()`` — C-level list copies are
    invisible, any Python-level loop over records is not."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def write_and_read(partition, batch) -> None:
    n = len(batch)
    partition.append(batch)                       # leader append + two syncs
    partition.append_marker(COMMIT_MARKER, 1, 0)
    log = partition.replica_log(2)
    result = log.read_columnar(0, max_records=n - 1, filter_aborted=True)
    assert result.next_offset == n - 1
    assert result.keys() == batch.keys[:-1]
    assert result.offsets() == list(range(n - 1))
    assert result.producer_ids() == [1] * (n - 1)
    assert len(log.read(0)) == len(log.records()) == len(log) == n + 1


def test_append_sync_and_columnar_read_do_no_per_record_work(monkeypatch):
    built = []
    init = Record.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting)
    probe = Record(key=None, value=None)
    assert built == [probe]                       # the counter counts
    cost = {}
    # The first rounds only warm the interpreter up: once it has specialized
    # a code object, fused instruction pairs count as one.
    for n in [10] * 16 + [10, 1000]:
        partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1, 2])
        batch = slab(n, pid=1, sequence=0, transactional=True)
        cost[n] = opcodes(lambda: write_and_read(partition, batch))
    assert built == [probe]
    assert cost[1000] == cost[10] > 0


def test_followers_hold_the_leaders_stored_batches():
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1, 2])
    batch = slab(1000)
    partition.append(batch)
    partition.append_marker(COMMIT_MARKER, 9, 0)
    leader = partition.leader_log()
    assert leader._batches[0].keys is batch.keys   # adopted, not copied
    for follower in (partition.replica_log(1), partition.replica_log(2)):
        assert len(follower._batches) == 2
        assert all(a is b for a, b in zip(follower._batches, leader._batches))
        # One materialization serves every replica.
        assert follower.records()[0] is leader.records()[0]


def test_cuts_inside_a_shared_batch_copy_instead_of_writing():
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1, 2])
    partition.append(slab(1000, key="same"))
    leader, truncated = (partition.replica_log(b) for b in (0, 1))
    shared = leader._batches[0]
    before = (list(shared.keys), list(shared.values), shared.base_offset, shared.end_offset)

    truncated.truncate_to(400)
    assert truncated.log_end_offset == 400 and len(truncated) == 400
    assert truncated.read_columnar(0, up_to_offset=400).values() == shared.values[:400]

    leader.delete_records_before(250)              # the leader's own cut, too
    assert leader._batches[0] is not shared
    assert leader.read_columnar(250).offsets() == list(range(250, 1000))
    assert [r.sequence for r in leader.read(250)][:2] == [-1, -1]

    assert (list(shared.keys), list(shared.values), shared.base_offset, shared.end_offset) == before
    assert len(shared) == 1000

    # The truncated follower takes the rest of the batch back on the next sync.
    leader_values = leader.read_columnar(250).values()
    partition._sync_follower(truncated, leader)
    assert truncated.read_columnar(250).values() == leader_values


def test_non_idempotent_retry_stores_the_same_lists_twice():
    log = PartitionLog()
    batch = slab(3)
    first = log.append_batch(batch)
    retry = log.append_batch(batch)
    assert not retry.duplicate
    assert (first.base_offset, retry.base_offset) == (0, 3)
    assert log._batches[0].keys is log._batches[1].keys
    log.high_watermark = log.log_end_offset
    result = log.read_columnar(0)
    assert result.values() == batch.values * 2
    assert result.offsets() == [0, 1, 2, 3, 4, 5]
    assert [(r.offset, r.value) for r in log.read(0)] == list(
        zip(range(6), batch.values * 2)
    )


def test_cut_batches_keep_offsets_and_sequences():
    log = PartitionLog()
    log.append_batch(slab(6, pid=4, sequence=10, key="k"))
    log.append_batch(slab(1, pid=5, sequence=0, key="k"))
    log.high_watermark = log.log_end_offset
    whole = [(r.offset, r.sequence, r.value) for r in log.records()]
    log.delete_records_before(2)
    assert [(r.offset, r.sequence, r.value) for r in log.records()] == whole[2:]
    log.truncate_to(6)
    assert [(r.offset, r.sequence, r.value) for r in log.records()] == whole[2:6]
    log.high_watermark = 6
    # A fetch from inside a cut batch starts at its offset and sequence.
    result = log.read_columnar(4)
    assert result.offsets() == [4, 5] and result.next_offset == 6
    assert [r.sequence for r in result.records] == [14, 15]
    assert log.log_end_offset == 6 and len(log) == 4


def test_aborted_index_is_pruned_with_the_records_it_masks():
    """Repartition topics are purged after every commit: spans that end
    below the log start would otherwise pile up for ever, and every
    read-committed fetch walks the index."""
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1])
    leader, follower = partition.replica_log(0), partition.replica_log(1)
    sequences = {1: 0, 2: 0}
    for round_ in range(20):
        for pid in (1, 2):
            partition.append(slab(3, pid=pid, sequence=sequences[pid], transactional=True))
            sequences[pid] += 3
            partition.append_marker(ABORT_MARKER, pid, 0)
        purge_to = leader.log_end_offset - 4       # inside the last span
        # Purging through the handles: the follower is brought level first.
        assert partition.replica_log(1) is follower
        for log in (leader, follower):
            log.delete_records_before(purge_to)
            spans = log.aborted_transactions()
            assert spans and all(s.last_offset >= purge_to for s in spans)
            assert len(spans) <= 2
            indexed = [s for _, _, entry in log._aborted_index.values() for s in entry]
            assert sorted(indexed, key=lambda s: s.last_offset) == spans
            assert all(lasts for _, lasts, _ in log._aborted_index.values())
        assert follower.aborted_transactions() == leader.aborted_transactions()
    # The straddling span still masks what is left of its transaction.
    assert leader.read_columnar(purge_to, filter_aborted=True).valid_count == 0
    assert leader.read_columnar(purge_to).valid_count == 3
    # And the follower still syncs by the "last k spans" rule.
    partition.append(slab(2, pid=1, sequence=sequences[1], transactional=True))
    partition.append_marker(ABORT_MARKER, 1, 0)
    assert partition.replica_log(1) is follower
    assert follower.aborted_transactions() == leader.aborted_transactions()
    assert follower._aborted_index == leader._aborted_index

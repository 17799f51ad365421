"""Property test: a follower sync costs O(batches in the suffix) but must
leave the follower indistinguishable from the leader.

``PartitionLog.replicate_mirror`` takes the leader's missing stored batches
by reference and only refreshes the producer ids that head them. Hypothesis
interleaves every kind of leader append with follower divergence,
truncation (inside batches too), resets and record deletion, syncs at
arbitrary points (so suffixes span zero, one and many batches) and after
each sync compares everything a leader-to-be will be asked about.
"""

from hypothesis import given, settings, strategies as st

from repro.broker.partition import PartitionState, TopicPartition
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    NO_SEQUENCE,
    Record,
    RecordBatch,
    control_marker,
)

PIDS = st.integers(min_value=1, max_value=4)
SIZES = st.integers(min_value=1, max_value=4)
KINDS = st.sampled_from(["plain", "idempotent", "transactional", "sequence-less"])
MARKERS = st.sampled_from([COMMIT_MARKER, ABORT_MARKER])
# Mostly the leader's: a follower that diverges before every sync would only
# ever exercise the resync after a truncation.
ON_FOLLOWER = st.sampled_from([False] * 7 + [True])
FRACTION = st.floats(min_value=0.0, max_value=1.0)

APPEND = st.tuples(st.just("append"), ON_FOLLOWER, KINDS, PIDS, SIZES)
MARKER = st.tuples(st.just("marker"), ON_FOLLOWER, MARKERS, PIDS, st.booleans())
# Independent draws seldom close a transaction they opened: this one does,
# with the sync that splits it from its marker or without.
TRANSACTION = st.tuples(st.just("transaction"), PIDS, SIZES, MARKERS, st.booleans())
OPS = st.one_of(
    *[APPEND] * 3,
    *[MARKER] * 2,
    *[TRANSACTION] * 3,
    *[st.tuples(st.just("sync"))] * 4,
    st.tuples(st.just("retry"), PIDS),
    st.tuples(st.just("bump"), PIDS),
    st.tuples(st.just("delete"), FRACTION, st.booleans()),
    st.tuples(st.just("truncate"), FRACTION),
    st.tuples(st.just("reset")),
    st.tuples(st.just("sync")),
)


def batch_for(log, kind, pid, epoch, size, value):
    """A batch of ``kind`` that ``log`` will accept from ``pid`` next."""
    records = [Record(key=f"k{value}", value=(value, i)) for i in range(size)]
    if kind == "plain":
        return RecordBatch(records)
    sequence = NO_SEQUENCE
    if kind != "sequence-less":
        state = log._producers.get(pid)
        fresh = state is None or state.epoch != epoch or not state.batches
        sequence = 0 if fresh else state.last_sequence + 1
    return RecordBatch(
        records,
        producer_id=pid,
        producer_epoch=epoch,
        base_sequence=sequence,
        is_transactional=kind in ("transactional", "sequence-less"),
    )


def primitive(ops):
    for op in ops:
        if op[0] == "transaction":
            _, pid, size, marker, sync_inside = op
            yield ("append", False, "transactional", pid, size)
            if sync_inside:
                yield ("sync",)
            yield ("marker", False, marker, pid, False)
        else:
            yield op
    yield ("sync",)


def retried(pid, state):
    """The producer's newest cached batch, as its retry would arrive."""
    meta = state.batches[-1]
    size = meta.last_sequence - meta.base_sequence + 1
    return RecordBatch(
        [Record(key="retry", value=i) for i in range(size)],
        producer_id=pid,
        producer_epoch=state.epoch,
        base_sequence=meta.base_sequence,
    )


def describe(log):
    """Every piece of state a sync maintains, copied out of the log. How
    the records are cut into stored batches is not part of it: a follower
    that was truncated inside a batch holds it in two pieces."""
    return {
        "records": list(log.records()),
        "count": (len(log), sum(len(batch) for batch in log._batches)),
        "end": log.log_end_offset,
        "open": dict(log.open_transactions()),
        "aborted": list(log.aborted_transactions()),
        "aborted_index": {
            p: (list(f), list(l), list(s))
            for p, (f, l, s) in log._aborted_index.items()
        },
        "producers": {
            p: (s.epoch, s.last_sequence, list(s.batches))
            for p, s in log._producers.items()
        },
    }


def assert_follower_equals_leader(follower, leader, synced_from):
    start = leader.log_start_offset
    assert follower.log_start_offset == start
    assert describe(follower) == describe(leader)
    # Whole batches the sync added are the leader's own objects, in order.
    mirrored = [b for b in leader._batches if b.base_offset >= synced_from]
    assert len(follower._batches) >= len(mirrored)
    assert all(
        mine is theirs
        for mine, theirs in zip(reversed(follower._batches), reversed(mirrored))
    )
    bases = [batch.base_offset for batch in follower._batches]
    assert bases == sorted(set(bases))
    assert follower.last_stable_offset == leader.last_stable_offset
    for pid in range(0, 6):
        for offset in range(leader.log_end_offset + 1):
            assert follower.is_offset_aborted(pid, offset) == leader.is_offset_aborted(
                pid, offset
            )
    end = leader.log_end_offset
    mine = follower.read_columnar(start, up_to_offset=end, filter_aborted=True)
    theirs = leader.read_columnar(start, up_to_offset=end, filter_aborted=True)
    assert mine.offsets() == theirs.offsets()
    assert mine.values() == theirs.values()
    assert mine.sequences() == theirs.sequences()
    assert mine.next_offset == theirs.next_offset
    # Equal but never shared: what the leader mutates, the follower owns.
    assert follower._batches is not leader._batches
    assert follower._open_txns is not leader._open_txns
    assert follower._aborted is not leader._aborted
    for pid, state in leader._producers.items():
        assert follower._producers[pid] is not state
        assert follower._producers[pid].batches is not state.batches
    for pid, (firsts, lasts, spans) in follower._aborted_index.items():
        assert firsts is not leader._aborted_index[pid][0]
        assert lasts is not leader._aborted_index[pid][1]
        assert spans is not leader._aborted_index[pid][2]
    # Promoted to leader, the follower answers a retry like the leader does.
    for pid, state in leader._producers.items():
        if state.batches:
            expected = leader.append_batch(retried(pid, state))
            assert expected.duplicate
            assert follower.append_batch(retried(pid, state)) == expected


@given(st.lists(OPS, min_size=10, max_size=60))
@settings(max_examples=300, deadline=None)
def test_follower_equals_leader_after_every_sync(ops):
    partition = PartitionState(TopicPartition("t", 0), broker_ids=[0, 1])
    leader, follower = partition.replicas[0], partition.replicas[1]
    epochs = {pid: 0 for pid in range(1, 5)}
    synced_to = 0          # the follower is a prefix of the leader below this
    snapshot = None        # the follower as its last sync left it, if untouched
    value = 0
    for name, *args in primitive(ops):
        if name in ("append", "marker"):
            on_follower, what, pid, arg = args
            log, epoch = leader, epochs[pid]
            if on_follower:
                # A divergent suffix the leader never sees, at times from a
                # producer incarnation it never sees either.
                state = follower._producers.get(pid)
                log = follower
                epoch = max(epoch, state.epoch if state else 0) + arg % 2
                snapshot = None
            if name == "append":
                value += 1
                log.append_batch(batch_for(log, what, pid, epoch, arg, value))
            else:
                log.append_marker(control_marker(what, pid, epoch + arg))
                if not on_follower:
                    epochs[pid] += arg
        elif name == "retry":
            state = leader._producers.get(args[0])
            if state is not None and state.batches:
                assert leader.append_batch(retried(args[0], state)).duplicate
        elif name == "bump":
            epochs[args[0]] += 1
        elif name == "delete":
            fraction, on_follower_too = args
            leader.high_watermark = leader.log_end_offset
            before = int(fraction * leader.log_end_offset)
            leader.delete_records_before(before)
            if on_follower_too:
                follower.delete_records_before(before)
                snapshot = None
        elif name == "truncate":
            follower.truncate_to(
                max(follower.log_start_offset, int(args[0] * synced_to))
            )
            synced_to = min(synced_to, follower.log_end_offset)
            snapshot = None
        elif name == "reset":
            follower.reset_to(leader.log_start_offset)
            synced_to = follower.log_end_offset
            snapshot = None
        else:
            if snapshot is not None:
                # Only the leader moved since the last sync.
                assert describe(follower) == snapshot
            partition._truncate_divergence(1)
            synced_from = (
                leader.log_start_offset
                if follower.log_start_offset < leader.log_start_offset
                else min(follower.log_end_offset, leader.log_end_offset)
            )
            partition._sync_follower(follower, leader)
            assert_follower_equals_leader(follower, leader, synced_from)
            synced_to = follower.log_end_offset
            snapshot = describe(follower)
    # The leader moves on for every producer; the synced follower does not.
    for pid, epoch in epochs.items():
        leader.append_batch(batch_for(leader, "idempotent", pid, epoch + 1, 2, "x"))
        leader.append_marker(control_marker(ABORT_MARKER, pid, epoch + 2))
    assert describe(follower) == snapshot

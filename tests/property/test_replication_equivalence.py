"""Property tests: a follower sync costs O(batches in the suffix) but must
leave the follower indistinguishable from the leader, and running it when
a follower is looked at is indistinguishable from running it in every
append (the twin run at the end of the file).

``PartitionLog.replicate_mirror`` takes the leader's missing stored batches
by reference and only refreshes the producer ids that head them. Hypothesis
interleaves every kind of leader append with follower divergence,
truncation (inside batches too), resets and record deletion, syncs at
arbitrary points (so suffixes span zero, one and many batches) and after
each sync compares everything a leader-to-be will be asked about.
"""

from hypothesis import given, settings, strategies as st

from repro.broker.partition import PartitionState, TopicPartition
from repro.errors import KafkaError
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    NO_SEQUENCE,
    Record,
    RecordBatch,
)

from tests.property.test_log_properties import assert_offsets_have_no_gap

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
        "aborted": list(log._aborted),
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
    assert mine.columns()[0] == theirs.columns()[0]
    assert mine.values() == theirs.values()
    assert [r.sequence for r in mine.records] == [r.sequence for r in theirs.records]
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
    leader, follower = partition.replica_log(0), partition.replica_log(1)
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
                log.append_marker(what, pid, epoch + arg)
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
        leader.append_marker(ABORT_MARKER, pid, epoch + 2)
    assert describe(follower) == snapshot


# -- replication on demand: the twin run ------------------------------------------
#
# ``PartitionState.replicate`` only notes what the in-sync followers owe;
# the copy runs when something looks at a follower or changes who is one.
# One op sequence goes into two partitions: the code under test, which syncs
# only where it decides to, and a reference whose ``replicate`` is the
# copying round it replaced, so it never owes anything. Wherever a follower
# can be observed, and at the end, the twins must be the same, and every
# in-sync follower must hold what the leader has acknowledged.

BROKERS = (0, 1, 2)
BROKER = st.sampled_from(BROKERS)
ACKS = st.sampled_from(["all", "all", "all", "1"])
TWIN_KINDS = st.sampled_from(["plain", "idempotent", "transactional"])
TWIN_OPS = st.one_of(
    *[st.tuples(st.just("append"), ACKS, TWIN_KINDS, PIDS, SIZES)] * 6,
    *[st.tuples(st.just("marker"), MARKERS, PIDS, st.booleans())] * 3,
    st.tuples(st.just("replicate")),
    st.tuples(st.just("bump"), PIDS),
    st.tuples(st.just("delete"), FRACTION),
    *[st.tuples(st.just("crash"), BROKER)] * 2,
    *[st.tuples(st.just("restart"), BROKER)] * 2,
    st.tuples(st.just("transfer"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("read"), BROKER),
    # Independent draws seldom leave an unreplicated suffix on a replica
    # that then stops leading, or on one that rejoins: these do.
    st.tuples(st.just("unreplicated, then"), st.just("transfer"), PIDS, SIZES),
    st.tuples(st.just("unreplicated, then"), st.just("rejoin"), PIDS, SIZES, BROKER),
)
# The ops after which a follower's log may be looked at, frozen or promoted.
OBSERVING = {"delete", "crash", "restart", "transfer", "read"}


def twin_primitive(ops):
    for op in ops:
        if op[0] == "unreplicated, then":
            _, then, pid, size, *broker = op
            yield ("append", "1", "plain", pid, size)
            if then == "transfer":
                yield ("transfer", 0)
            else:
                yield ("crash", *broker)
                yield ("restart", *broker)
                yield ("crash", "leader")
        else:
            yield op


class CopyingPartitionState(PartitionState):
    """The reference: ``replicate`` as it was before the copy was deferred,
    kept here so the twin run does not compare the code under test with
    itself. Every in-sync follower is synced inside the call, so nothing
    is ever owed and no settle point has work to do."""

    def replicate(self):
        leader_log = self.leader_log()
        hw = leader_log.log_end_offset
        for broker_id in self.isr:
            if broker_id != self.leader:
                follower = self._replicas[broker_id]
                self._sync_follower(follower, leader_log)
                hw = min(hw, follower.log_end_offset)
        if hw > leader_log.high_watermark:
            leader_log.high_watermark = hw
            for broker_id in self.isr:
                self._replicas[broker_id].high_watermark = hw


def describe_partition(partition):
    """The partition as it is, without looking through ``replica_log``."""
    return {
        "leader": partition.leader,
        "isr": set(partition.isr),
        "replicas": {
            broker: {
                **describe(log),
                "start": log.log_start_offset,
                "hw": log.high_watermark,
                "lso": log.last_stable_offset,
            }
            for broker, log in partition._replicas.items()
        },
    }


def assert_in_sync_followers_hold_the_acked_prefix(partition):
    """Below the high watermark an in-sync follower is the leader's log."""
    if partition.leader is None:
        return
    leader = partition.leader_log()
    hw = leader.high_watermark
    start = leader.log_start_offset
    theirs = {r.offset: r for r in leader.read(start, up_to_offset=hw)}
    for broker in partition.isr - {partition.leader}:
        follower = partition._replicas[broker]
        assert follower.high_watermark == hw <= follower.log_end_offset
        assert follower.log_start_offset == start
        assert follower.last_stable_offset == leader.last_stable_offset
        mine = {r.offset: r for r in follower.read(start, up_to_offset=hw)}
        assert mine == theirs


def apply(partition, op, batch):
    """Run one op; what it returned, or the error it refused with."""
    name, *args = op
    try:
        if name == "append":
            result = partition.append(batch, acks=args[0])
            return (result.base_offset, result.last_offset, result.duplicate)
        if name == "marker":
            what, pid = args[:2]
            return partition.append_marker(what, pid, batch)
        if name == "replicate":
            return partition.replicate()
        if name == "delete":
            end = partition.leader_log().log_end_offset
            return partition.delete_records_before(int(args[0] * end))
        if name == "crash":
            return partition.on_broker_failure(args[0])
        if name == "restart":
            return partition.on_broker_restart(args[0])
        if name == "transfer":
            candidates = sorted(partition.isr - {partition.leader})
            if candidates:
                partition.transfer_leadership(candidates[args[0] % len(candidates)])
            return partition.leader
        if name == "read":
            log = partition.replica_log(args[0])
            read = log.read_columnar(log.log_start_offset, filter_aborted=True)
            return (read.columns()[0], read.values(), read.next_offset)
    except KafkaError as exc:
        return type(exc)
    raise AssertionError(f"unknown op {name}")


@given(st.lists(TWIN_OPS, min_size=10, max_size=60))
@settings(max_examples=300, deadline=None)
def test_sync_on_demand_equals_sync_inside_every_append(ops):
    def twin(cls):
        return cls(
            TopicPartition("t", 0), broker_ids=list(BROKERS), min_insync_replicas=2,
        )

    lazy, eager = twin(PartitionState), twin(CopyingPartitionState)
    epochs = {pid: 0 for pid in range(1, 5)}
    down = set()
    value = 0

    def assert_twins_agree(op):
        assert describe_partition(lazy) == describe_partition(eager), op
        for partition in (lazy, eager):
            assert_in_sync_followers_hold_the_acked_prefix(partition)

    for op in twin_primitive(ops):
        name, *args = op
        batch = None
        if name == "bump":
            epochs[args[0]] += 1
            continue
        if args == ["leader"]:
            if eager.leader is None:
                continue
            op, args = (name, eager.leader), [eager.leader]
        if name in ("crash", "restart"):
            # As the cluster does: only a live broker fails, only a dead
            # one comes back.
            if (args[0] in down) == (name == "crash"):
                continue
            down ^= {args[0]}
        if eager.leader is not None:
            # Both leaders hold the same log, so one batch suits both.
            if name == "append":
                _, kind, pid, size = args
                value += 1
                batch = batch_for(
                    eager.leader_log(), kind, pid, epochs[pid], size, value % 5
                )
            elif name == "marker":
                what, pid, bump = args
                epochs[pid] += bump
                batch = epochs[pid]             # the marker's epoch
        outcome = apply(lazy, op, batch)
        assert outcome == apply(eager, op, batch), op
        assert eager._owed_end is None
        for partition in (lazy, eager):
            for log in partition._replicas.values():
                assert_offsets_have_no_gap(log)
        if name in OBSERVING:
            # Every in-sync follower is level after these: compare
            # without looking.
            assert_twins_agree(op)
    lazy.replica_log(BROKERS[0])        # one look settles the partition
    assert_twins_agree("end")

"""The indexed fetch path must be observably identical to a naive scan.

``fetch()`` finds its window by bisect over the stored batches and decides
per *batch* whether it is a marker or lies in an aborted span of the
per-producer interval index. These properties pit it against a
straight-line reference implementation — full-tail read, record by record,
plus a linear scan of the aborted-transaction list — over randomly
interleaved open/committed/aborted transactions, control markers, and
plain (non-transactional) records in batches of up to 16 (so a fetch
starts and stops inside a stored batch), across all three isolation
levels and arbitrary ``from_offset`` / ``max_records`` combinations.
``Consumer.poll`` is held to the same standard one layer up: what it hands
out is the log's own scalar view of each window plus the assignment.
``ColumnarBatch.columns()`` — the one-walk gather that ``poll`` and the
Streams intake read — must equal the five single-column accessors over
logs cut every way the log cuts a stored batch, and ``poll`` /
``StreamTask.add_batch`` must hand out / queue exactly what those
accessors would have given them. A read that starts far from the log end
jumps through the log's scan index instead of walking: the jump must land
exactly where the walk does, on every window, with reads interleaved
between every mutation that can leave the index stale.
"""

import bisect
import copy
from typing import List, NamedTuple, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.cluster import Cluster
from repro.broker.fetch import fetch
from repro.broker.partition import PartitionState, TopicPartition
from repro.clients import Consumer, ConsumerRecord, Producer
from repro.config import (
    READ_COMMITTED,
    READ_SPECULATIVE,
    READ_UNCOMMITTED,
    BrokerConfig,
    ConsumerConfig,
    ProducerConfig,
)
from repro.log.partition_log import _JUMP_MIN_BATCHES, PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)
from repro.streams.runtime.record_queue import PartitionGroup
from repro.streams.runtime.task import StreamTask

from tests.integration.test_speculative_processing import downstream_app
from tests.streams.harness import make_cluster

ISOLATION_LEVELS = (READ_UNCOMMITTED, READ_COMMITTED, READ_SPECULATIVE)

PIDS = (1, 2, 3)
SIZES = st.sampled_from([1, 1, 2, 3, 5, 8, 16])
OFFSETS = st.integers(min_value=0, max_value=400)


class ReferenceResult(NamedTuple):
    records: List[Record]
    next_offset: int
    high_watermark: int
    last_stable_offset: int


def reference_fetch(
    log: PartitionLog,
    from_offset: int,
    max_records: int,
    isolation_level: str,
) -> ReferenceResult:
    """The fetch semantics, spelled out naively: scan the whole visible
    tail record by record and test aborted membership by a linear walk
    over every aborted span."""
    if isolation_level == READ_COMMITTED:
        limit = log.last_stable_offset
    else:
        limit = log.high_watermark
    from_offset = max(from_offset, log.log_start_offset)
    records: List[Record] = []
    next_offset = from_offset
    filter_aborted = isolation_level in (READ_COMMITTED, READ_SPECULATIVE)
    aborted = list(log.aborted_transactions())
    for record in log.records():
        if record.offset < from_offset:
            continue
        if record.offset >= limit:
            break
        if len(records) >= max_records:
            break
        next_offset = record.offset + 1
        if record.is_control:
            continue
        if filter_aborted and any(
            span.producer_id == record.producer_id
            and span.first_offset <= record.offset <= span.last_offset
            for span in aborted
        ):
            continue
        records.append(record)
    return ReferenceResult(
        records, next_offset, log.high_watermark, log.last_stable_offset
    )


@st.composite
def log_scripts(draw):
    """A random interleaving of transactional batches from three producers
    (each transaction randomly committed, aborted, or left open), plus
    plain non-transactional batches."""
    steps = []
    open_txns = set()
    n = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n):
        kind = draw(st.sampled_from(["txn_send", "txn_send", "plain", "end"]))
        if kind == "plain":
            steps.append(("plain", draw(SIZES)))
        elif kind == "txn_send":
            pid = draw(st.sampled_from(PIDS))
            steps.append(("send", pid, draw(SIZES)))
            open_txns.add(pid)
        elif open_txns:
            pid = draw(st.sampled_from(sorted(open_txns)))
            steps.append(("end", pid, draw(st.booleans())))
            open_txns.discard(pid)
    # Close a random subset of what's still open; the rest stays open so
    # the LSO sits below the high watermark.
    for pid in sorted(open_txns):
        if draw(st.booleans()):
            steps.append(("end", pid, draw(st.booleans())))
    return steps


def build_log(steps, log: Optional[PartitionLog] = None) -> PartitionLog:
    if log is None:
        log = PartitionLog("equiv")
    seqs = {pid: 0 for pid in PIDS}
    value = 0
    for step in steps:
        if step[0] == "plain":
            size = step[1]
            log.append_batch(
                RecordBatch(
                    [
                        Record(key="p", value=value + i, timestamp=float(value + i))
                        for i in range(size)
                    ]
                )
            )
            value += size
        elif step[0] == "send":
            _, pid, size = step
            records = [
                Record(key="t", value=value + i, headers={"n": value + i})
                for i in range(size)
            ]
            value += size
            log.append_batch(
                RecordBatch(
                    records,
                    producer_id=pid,
                    producer_epoch=0,
                    base_sequence=seqs[pid],
                    is_transactional=True,
                )
            )
            seqs[pid] += size
        else:
            _, pid, commit = step
            marker = COMMIT_MARKER if commit else ABORT_MARKER
            log.append_marker(marker, pid, 0)
    log.high_watermark = log.log_end_offset
    return log


@given(log_scripts(), OFFSETS, st.integers(min_value=1, max_value=50))
@settings(max_examples=120, deadline=None)
def test_fetch_matches_reference_scan(steps, from_offset, max_records):
    """fetch() returns the same records and the same next_offset as the
    naive reference, for every isolation level and any window."""
    log = build_log(steps)
    from_offset = min(from_offset, log.log_end_offset)
    for isolation in ISOLATION_LEVELS:
        got = fetch(log, from_offset, max_records, isolation)
        want = reference_fetch(log, from_offset, max_records, isolation)
        assert got.records == want.records, isolation
        assert got.next_offset == want.next_offset, isolation
        assert got.high_watermark == want.high_watermark
        assert got.last_stable_offset == want.last_stable_offset


@given(log_scripts(), st.integers(min_value=1, max_value=21))
@settings(max_examples=80, deadline=None)
def test_paged_fetch_equals_one_shot_fetch(steps, page_size):
    """Repeatedly fetching ``page_size`` records and chaining next_offset
    yields exactly the records (and final position) of one unbounded fetch."""
    log = build_log(steps)
    for isolation in ISOLATION_LEVELS:
        whole = fetch(log, 0, 10**9, isolation)
        paged = []
        position = 0
        while True:
            result = fetch(log, position, page_size, isolation)
            paged.extend(result.records)
            if result.next_offset == position:
                break
            position = result.next_offset
        assert paged == whole.records, isolation
        assert position == whole.next_offset, isolation


@given(log_scripts(), OFFSETS, st.integers(min_value=1, max_value=50))
@settings(max_examples=120, deadline=None)
def test_column_accessors_match_reference_scan(steps, from_offset, max_records):
    """Every column accessor of the fetched batch lines up, position for
    position, with the records the naive scan returns: run masking and
    per-record scanning are two encodings of one visibility rule."""
    log = build_log(steps)
    from_offset = min(from_offset, log.log_end_offset)
    for isolation in ISOLATION_LEVELS:
        want = reference_fetch(log, from_offset, max_records, isolation)
        got = fetch(log, from_offset, max_records, isolation)
        assert got.valid_count == len(got) == len(want.records)
        assert len(got.records) == len(want.records)
        assert bool(got) == bool(want.records)
        assert got.next_offset == want.next_offset
        assert got.keys() == [r.key for r in want.records]
        assert got.values() == [r.value for r in want.records]
        assert got.timestamps() == [r.timestamp for r in want.records]
        assert got.offsets() == [r.offset for r in want.records]
        assert got.headers() == [r.headers for r in want.records]
        assert got.producer_ids() == [r.producer_id for r in want.records]
        assert [
            (r.producer_epoch, r.sequence, r.is_transactional) for r in got.records
        ] == [
            (r.producer_epoch, r.sequence, r.is_transactional) for r in want.records
        ]


def single_columns(batch):
    """The five client-visible columns, one accessor (one walk) each."""
    return (
        batch.offsets(), batch.timestamps(), batch.keys(), batch.values(),
        batch.headers(),
    )


def cut_log(steps, data) -> PartitionLog:
    """A scripted log, then any of: compaction holes below the LSO (so
    ``StoredBatch.offsets`` is set), a follower that mirrors it (its
    stored batches shared with, or sliced from, the leader's), a
    ``truncate_to`` and a ``delete_records_before`` — each of which can cut
    a stored batch in two."""
    log = build_log(steps)
    stable = log.last_stable_offset
    if stable and data.draw(st.booleans(), label="compact"):
        holes = data.draw(st.sets(st.integers(0, stable - 1)), label="holes")
        log.retain_offsets(set(range(stable)) - holes, below=stable)
    if data.draw(st.booleans(), label="follower"):
        follower = PartitionLog("follower")
        follower.replicate_mirror(log)
        follower.high_watermark = log.high_watermark
        log = follower
    if data.draw(st.booleans(), label="truncate"):
        log.truncate_to(
            data.draw(st.integers(0, log.log_end_offset), label="truncate_to")
        )
    if data.draw(st.booleans(), label="delete"):
        log.delete_records_before(
            data.draw(st.integers(0, log.high_watermark), label="delete_before")
        )
    return log


def assert_columns_match(got, want: ReferenceResult) -> None:
    columns = got.columns()
    assert columns == single_columns(got)
    assert columns == (
        [r.offset for r in want.records],
        [r.timestamp for r in want.records],
        [r.key for r in want.records],
        [r.value for r in want.records],
        [r.headers for r in want.records],
    )
    # Fresh lists the caller owns: none is a stored column, none is shared
    # with another call.
    again = got.columns()
    for column, other in zip(columns, again):
        assert type(column) is list and column is not other
    for stored in got._batches:
        held = (
            stored.offsets, stored.timestamps, stored.keys, stored.values,
            stored.headers,
        )
        assert not any(column is own for column, own in zip(columns, held))
    columns[2].append("scribble")
    assert got.keys() == again[2]


@given(log_scripts(), st.data(), OFFSETS, st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_columns_equal_the_single_column_accessors(steps, data, from_offset, max_records):
    """``columns()`` is the five accessors gathered in one walk: over logs
    with aborted spans, markers, compaction holes, truncation, deleted
    prefixes and follower copies, for windows cut inside their first and
    last stored batch, at every isolation level."""
    log = cut_log(steps, data)
    from_offset = min(from_offset, log.log_end_offset)
    for isolation in ISOLATION_LEVELS:
        got = fetch(log, from_offset, max_records, isolation)
        assert_columns_match(got, reference_fetch(log, from_offset, max_records, isolation))


def test_columns_at_every_window_of_a_cut_log():
    """Exhaustively: every ``(from_offset, max_records)`` window — both
    ends at every position, every budget boundary — of a log with an
    aborted span, markers, holes and a cut first batch, on a follower."""
    leader = build_log([
        ("send", 1, 5), ("plain", 3), ("send", 2, 4), ("end", 1, True),
        ("plain", 8), ("send", 2, 3), ("end", 2, False), ("send", 3, 6),
        ("end", 3, True), ("plain", 2),
    ])
    stable = leader.last_stable_offset
    leader.retain_offsets(set(range(stable)) - {1, 7, 15, 16, 27}, below=stable)
    follower = PartitionLog("follower")
    follower.replicate_mirror(leader)
    follower.high_watermark = leader.high_watermark
    follower.delete_records_before(3)
    for log in (leader, follower):
        for isolation in ISOLATION_LEVELS:
            for from_offset in range(log.log_end_offset + 1):
                for max_records in range(1, 30):
                    got = fetch(log, from_offset, max_records, isolation)
                    assert_columns_match(
                        got, reference_fetch(log, from_offset, max_records, isolation)
                    )


def reference_poll(consumer, max_records):
    """What ``poll`` built from ``poll_batches`` before ``columns()``: the
    five single-column accessors zipped, one ``ConsumerRecord`` each."""
    return [
        ConsumerRecord(batch.topic, batch.partition, *fields)
        for batch in consumer.poll_batches(max_records)
        for fields in zip(*single_columns(batch))
    ]


@given(log_scripts(), log_scripts(), st.data(), st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_poll_equals_the_accessor_zip_field_by_field(steps, more, data, max_records):
    """Two consumers in lockstep over two partitions (so one poll holds
    several fetches, each cut by the shared budget), one through ``poll``,
    one through the accessor reference: same records, field by field, each
    a ``ConsumerRecord`` holding the log's own header mappings."""
    cluster = Cluster(
        num_brokers=1,
        config=BrokerConfig(replication_factor=1, min_insync_replicas=1),
        seed=7,
    )
    cluster.network.charge_latency = False
    cluster.create_topic("equiv", 2)
    partitions = cluster.partitions_for("equiv")
    for tp, script in zip(partitions, (steps, more)):
        log = build_log(script, cluster.partition_state(tp).leader_log())
        stable = log.last_stable_offset
        if stable:
            holes = data.draw(st.sets(st.integers(0, stable - 1)), label="holes")
            log.retain_offsets(set(range(stable)) - holes, below=stable)
    for isolation in ISOLATION_LEVELS:
        config = ConsumerConfig(isolation_level=isolation)
        polled_by, reference_by = Consumer(cluster, config), Consumer(cluster, config)
        polled_by.assign(partitions)
        reference_by.assign(partitions)
        while True:
            polled = polled_by.poll(max_records)
            want = reference_poll(reference_by, max_records)
            assert polled == want, isolation
            for got, expected in zip(polled, want):
                assert type(got) is ConsumerRecord
                assert got.key is expected.key and got.value is expected.value
                assert got.headers is expected.headers
            if not want:
                break
        assert [polled_by.position(tp) for tp in partitions] == [
            reference_by.position(tp) for tp in partitions
        ]


@pytest.mark.parametrize("speculative", [False, True])
def test_add_batch_queues_the_accessor_columns(speculative):
    """The Streams intake queues, per fetched batch, exactly the columns
    the single-column accessors give — and, speculating, notes the same
    producer spans — over committed, aborted and (at the end) open
    transactions written in 3-record batches beside a plain producer."""
    cluster = make_cluster(mid=2, out=2)
    writers = [
        Producer(cluster, ProducerConfig(
            client_id=f"w{i}", transactional_id=f"w{i}", batch_max_records=3,
        ))
        for i in range(2)
    ]
    plain = Producer(cluster, ProducerConfig(client_id="plain", batch_max_records=4))
    for writer in writers:
        writer.init_transactions()
    app = downstream_app(cluster, speculative)    # a count over "mid"
    app.start(1)
    queued, expected, noted = [], [], []

    def spy_add_columns(self, tp, *columns):
        queued.append((tp, columns))
        return add_columns(self, tp, *columns)

    def reference_add_batch(self, tp, batch):
        deps = copy.deepcopy(self.speculative_deps)
        if batch.valid_count:
            offsets, timestamps, keys, values, headers = single_columns(batch)
            expected.append(
                (tp, (keys, values, timestamps, headers, offsets, batch.fetched_at))
            )
            if speculative:
                for pid, offset in zip(batch.producer_ids(), batch.offsets()):
                    if pid >= 0:
                        span = deps.setdefault((tp, pid), [offset, offset])
                        span[0] = min(span[0], offset)
                        span[1] = max(span[1], offset)
        add_batch(self, tp, batch)
        assert self.speculative_deps == deps
        noted.append(len(deps))

    add_columns, add_batch = PartitionGroup.add_columns, StreamTask.add_batch
    value = 0
    with mock.patch.object(PartitionGroup, "add_columns", spy_add_columns), \
            mock.patch.object(StreamTask, "add_batch", reference_add_batch):
        for round_ in range(6):
            for i, writer in enumerate(writers):
                writer.begin_transaction()
                for _ in range(7):
                    writer.send("mid", key=f"k{value % 5}", value=1, timestamp=float(value))
                    value += 1
                writer.flush()
                if (round_ + i) % 3 == 2:
                    writer.abort_transaction()
                elif round_ < 5 or i == 0:
                    writer.commit_transaction()     # w1's last one stays open
            for _ in range(5):
                plain.send("mid", key=f"k{value % 5}", value=1, timestamp=float(value))
                value += 1
            plain.flush()
            app.step()
            cluster.clock.advance(30.0)
        app.run_for(200.0)
    assert queued == expected
    assert len(queued) >= 6 and max(len(columns[0]) for _, columns in queued) > 7
    assert any(noted) == speculative


@given(log_scripts(), st.data(), st.integers(min_value=1, max_value=21))
@settings(max_examples=80, deadline=None)
def test_poll_hands_out_the_logs_scalar_view(steps, data, max_records):
    """Page by page, ``poll()`` returns the records ``fetch().records``
    shows for the same window — offset, timestamp, key, value and headers
    the log's, topic and partition the assignment's, never more than
    ``max_records`` — over transactional logs with compaction holes, at
    every isolation level, with pages that end inside a stored batch."""
    cluster = Cluster(
        num_brokers=1,
        config=BrokerConfig(replication_factor=1, min_insync_replicas=1),
        seed=7,
    )
    cluster.network.charge_latency = False
    cluster.create_topic("equiv", 1)
    tp = TopicPartition("equiv", 0)
    log = build_log(steps, cluster.partition_state(tp).leader_log())
    stable = log.last_stable_offset
    if stable:
        holes = data.draw(st.sets(st.integers(0, stable - 1)), label="compacted away")
        log.retain_offsets(set(range(stable)) - holes, below=stable)
    for isolation in ISOLATION_LEVELS:
        consumer = Consumer(cluster, ConsumerConfig(isolation_level=isolation))
        consumer.assign([tp])
        position = 0
        while True:
            window = fetch(log, position, max_records, isolation)
            polled = consumer.poll(max_records)
            assert len(polled) <= max_records
            assert all(type(record) is ConsumerRecord for record in polled)
            assert [
                (r.topic, r.partition, r.offset, r.timestamp, r.key, r.value, r.headers)
                for r in polled
            ] == [
                ("equiv", 0, r.offset, r.timestamp, r.key, r.value, dict(r.headers))
                for r in window.records
            ], isolation
            assert consumer.position(tp) == window.next_offset
            if window.next_offset == position:
                break
            position = window.next_offset


@given(log_scripts(), st.integers(min_value=1, max_value=21))
@settings(max_examples=80, deadline=None)
def test_paged_fetch_equals_one_shot_reference(steps, page_size):
    """Chaining next_offset across bounded fetches walks exactly the
    records of one unbounded naive scan — budget clamping never loses or
    duplicates a record at a page boundary."""
    log = build_log(steps)
    for isolation in ISOLATION_LEVELS:
        whole = reference_fetch(log, 0, 10**9, isolation)
        paged = []
        position = 0
        while True:
            batch = fetch(log, position, page_size, isolation)
            paged.extend(batch.records)
            if batch.next_offset == position:
                break
            position = batch.next_offset
        assert paged == whole.records, isolation
        assert position == whole.next_offset, isolation


def test_page_boundary_between_aborted_span_and_commit_marker():
    """A page that fills while an aborted span is open and a commit marker
    is next in line: the position must stop right after the last returned
    record, and the following page must step over the marker, the rest of
    the aborted span and its abort marker without returning any of them."""
    log = build_log([
        ("send", 1, 1),        # 0: a0 (committed)
        ("send", 2, 1),        # 1: x0 (aborted)
        ("send", 1, 1),        # 2: a1 (committed)
        ("end", 1, True),      # 3: commit marker
        ("send", 2, 1),        # 4: x1 (aborted)
        ("end", 2, False),     # 5: abort marker
        ("plain", 1),          # 6: b
        ("plain", 1),          # 7: c
    ])
    first = fetch(log, 0, 2, READ_COMMITTED)
    assert first.offsets() == [0, 2]
    assert first.next_offset == 3
    second = fetch(log, first.next_offset, 2, READ_COMMITTED)
    assert second.offsets() == [6, 7]
    assert second.next_offset == 8
    for isolation in ISOLATION_LEVELS:
        for from_offset in range(log.log_end_offset + 1):
            for max_records in range(1, 6):
                got = fetch(log, from_offset, max_records, isolation)
                want = reference_fetch(log, from_offset, max_records, isolation)
                assert got.records == want.records
                assert got.next_offset == want.next_offset


# -- the scan index: a long read jumps, and lands where the walk would -----------

#: What a scan can be asked for: ``read()`` sees every batch, a fetch masks
#: control batches, a read-committed (or speculative) fetch aborted ones too.
SCAN_MODES = ((False, False), (True, False), (True, True))
FRACTION = st.floats(min_value=0.0, max_value=1.0)
# Leader appends (transactional, idempotent and plain batches; markers
# that commit, abort or close nothing), compaction, purges (that the
# follower misses, so that its next sync resets it, or not), and the
# follower's own cuts and appends: each is read, then healed by a sync.
OP_ARGS = {
    "send": (st.sampled_from(PIDS), SIZES, st.booleans()),
    "plain": (SIZES,),
    "end": (st.sampled_from(PIDS), st.booleans()),
    "compact": (st.sets(st.integers(0, 127), max_size=6),),
    "delete": (FRACTION, st.booleans()),
    "truncate": (FRACTION,),
    "diverge": (st.sampled_from(PIDS), st.booleans()),
    "reset": (st.sampled_from(PIDS), SIZES),
    "sync": (),
    "read": (FRACTION,),
}
LOG_OPS = st.sampled_from(
    ["send"] * 8 + ["plain"] * 3 + ["end"] * 6
    + ["compact", "delete", "truncate", "diverge", "reset"]
    + ["sync"] * 2 + ["read"] * 3
).flatmap(lambda kind: st.tuples(st.just(kind), *OP_ARGS[kind]))


def assert_jump_lands_where_the_walk_does(log, fraction):
    """Every window the log can be read at — each ``from_offset`` from the
    log start to its end; limits at the end, at the LSO and at ``fraction``
    of the log; budgets that stop in the first batch, inside the run and
    never — in all three modes: the same run of stored batches (the same
    objects), ``lo``, ``hi``, visible and scanned counts and
    ``next_offset``."""
    start, end = log.log_start_offset, log.log_end_offset
    limits = {end, log.last_stable_offset, start + round(fraction * (end - start))}
    bases = [batch.base_offset for batch in log._batches]
    for from_offset in range(start, end + 1):
        # The stored batch a scan from there starts at: _scan's own bisect.
        first = max(bisect.bisect_right(bases, from_offset) - 1, 0)
        for limit in limits:
            for max_records in (1, 4, 10**6):
                for mode in SCAN_MODES:
                    args = (first, from_offset, max_records, limit, *mode)
                    walked, jumped = log._walk(*args), log._jump(*args)
                    assert len(jumped[0]) == len(walked[0]), args
                    assert all(a is b for a, b in zip(jumped[0], walked[0])), args
                    assert jumped[1:] == walked[1:], args


def play(ops):
    """A leader and its follower driven through ``ops``; each ``read``,
    and one at the end, compares the two scans on both logs. Reads build
    the scan index over the whole log (one limit is its end), so an index
    that a later mutation left stale shows at the next read."""
    leader, follower = PartitionLog("leader"), PartitionLog("follower")
    sequences = {pid: 0 for pid in PIDS}

    def sync():
        PartitionState._sync_follower(follower, leader)

    def batch(pid, size, sequence, transactional=True):
        return RecordBatch(
            [Record(key="t", value=i) for i in range(size)],
            producer_id=pid, producer_epoch=0,
            base_sequence=sequence, is_transactional=transactional,
        )

    for op in ops + [("sync",), ("read", 0.5)]:
        kind = op[0]
        if kind == "send":
            _, pid, size, transactional = op
            leader.append_batch(batch(pid, size, sequences[pid], transactional))
            sequences[pid] += size
        elif kind == "plain":
            leader.append_batch(
                RecordBatch([Record(key="p", value=i) for i in range(op[1])])
            )
        elif kind == "end":
            _, pid, commit = op
            leader.append_marker(COMMIT_MARKER if commit else ABORT_MARKER, pid, 0)
        elif kind == "compact":
            sync()      # followers are level first, as PartitionState.compact has them
            stable = leader.last_stable_offset
            leader.retain_offsets(set(range(stable)) - op[1], below=stable)
        elif kind == "delete":
            _, fraction, follower_too = op
            sync()
            offset = round(fraction * leader.high_watermark)
            leader.delete_records_before(offset)
            if follower_too:
                follower.delete_records_before(offset)
        elif kind == "truncate":
            sync()
            start = follower.log_start_offset
            follower.truncate_to(start + round(op[1] * (follower.log_end_offset - start)))
            assert_jump_lands_where_the_walk_does(follower, 1.0)
            sync()
        elif kind == "diverge":
            # A follower that led briefly: it appends on its own (a batch,
            # or an abort marker for data it shares with the leader), is
            # read, and is cut back to the leader as PartitionState._rejoin
            # does — the sync after the cut heals its index state.
            _, pid, abort = op
            sync()
            if abort:
                follower.append_marker(ABORT_MARKER, pid, 0)
            else:
                follower.append_batch(batch(pid, 1, sequences[pid]))
            assert_jump_lands_where_the_walk_does(follower, 1.0)
            follower.truncate_to(leader.log_end_offset)
            sync()
        elif kind == "reset":
            # Restarted at the leader's log start, the follower appends on
            # its own before it is cut back and mirrored again.
            _, pid, size = op
            follower.reset_to(leader.log_start_offset)
            follower.append_batch(batch(pid, size, 0))
            assert_jump_lands_where_the_walk_does(follower, 1.0)
            follower.truncate_to(follower.log_start_offset)
            sync()
        elif kind == "sync":
            sync()
        else:
            for log in (leader, follower):
                assert_jump_lands_where_the_walk_does(log, op[1])
        leader.high_watermark = leader.log_end_offset


@given(st.lists(LOG_OPS, min_size=15, max_size=40))
@settings(max_examples=60, deadline=None)
def test_a_jump_through_the_scan_index_lands_where_the_walk_does(ops):
    """``_jump`` against ``_walk``, its oracle, called directly (``_scan``
    sends logs this short to the walk), with reads interleaved between
    every kind of mutation that moves a stored batch or changes whether it
    is visible."""
    play(ops)


@pytest.mark.parametrize("mutation", [
    [("end", 1, False)],                                # an abort marker
    [("end", 1, False), ("sync",)],                     # ... mirrored
    [("delete", 0.4, True)],
    [("delete", 0.4, False), ("sync",)],                # missed: reset, mirrored
    [("truncate", 0.3)],                                # read stale, healed
    [("diverge", 1, True)],                             # heal drops a span
    [("reset", 1, 1)],
    [("end", 1, True), ("compact", {1, 5})],
], ids=[
    "abort", "mirrored-abort", "delete", "missed-delete", "truncate", "heal",
    "reset", "compact",
])
def test_each_cut_of_the_scan_index_is_needed(mutation):
    """One script per way to invalidate the index: read both logs
    (building it over every batch), change them that one way, read again.
    Each fails with the cut it needs deleted from the log."""
    play([
        ("send", 1, 3, True), ("send", 2, 2, True), ("plain", 2), ("end", 2, True),
        ("sync",), ("read", 1.0), *mutation, ("read", 1.0),
    ])


def test_a_scan_jumps_only_when_it_starts_far_from_the_log_end():
    """The crossover is the read's own distance from the log end, counted
    in stored batches: a tail read walks, a longer one jumps."""
    log = build_log([("send", 1, 2), ("end", 1, True)] * _JUMP_MIN_BATCHES)
    taken = []

    def spy(name):
        scan = getattr(PartitionLog, name)

        def spied(self, *args):
            taken.append(name)
            return scan(self, *args)

        return spied

    starts = [
        log._batches[-count].base_offset
        for count in (2 * _JUMP_MIN_BATCHES, _JUMP_MIN_BATCHES, _JUMP_MIN_BATCHES - 1, 1)
    ]
    with mock.patch.object(PartitionLog, "_walk", spy("_walk")), \
            mock.patch.object(PartitionLog, "_jump", spy("_jump")):
        for from_offset in starts:
            log.read_columnar(from_offset, 10, filter_aborted=True)
    assert taken == ["_jump", "_jump", "_walk", "_walk"]


@given(log_scripts())
@settings(max_examples=80, deadline=None)
def test_interval_index_agrees_with_span_list(steps):
    """The per-producer interval index answers membership exactly like a
    linear scan of the aborted-span list, for every (producer, offset)."""
    log = build_log(steps)
    spans = log.aborted_transactions()
    for pid in PIDS:
        for offset in range(log.log_end_offset + 1):
            naive = any(
                s.producer_id == pid
                and s.first_offset <= offset <= s.last_offset
                for s in spans
            )
            assert log.is_offset_aborted(pid, offset) == naive

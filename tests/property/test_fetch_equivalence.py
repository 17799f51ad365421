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
"""

from typing import List, NamedTuple, Optional

from hypothesis import given, settings, strategies as st

from repro.broker.cluster import Cluster
from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.clients import Consumer, ConsumerRecord
from repro.config import (
    READ_COMMITTED,
    READ_SPECULATIVE,
    READ_UNCOMMITTED,
    BrokerConfig,
    ConsumerConfig,
)
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
    control_marker,
)

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
            log.append_marker(control_marker(marker, pid, 0))
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

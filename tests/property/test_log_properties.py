"""Property-based tests on the log layer's core invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.broker.partition import PartitionState
from repro.errors import InvalidProducerEpochError, OutOfOrderSequenceError
from repro.log.columnar import ColumnarSlab
from repro.log.partition_log import AbortedTxn, PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)

values = st.integers(min_value=0, max_value=1000)


@st.composite
def batch_plans(draw):
    """A plan of batches, each with a retry count (0-2 retries)."""
    n = draw(st.integers(min_value=1, max_value=20))
    plans = []
    for i in range(n):
        size = draw(st.integers(min_value=1, max_value=4))
        retries = draw(st.integers(min_value=0, max_value=2))
        plans.append((size, retries))
    return plans


@given(batch_plans())
@settings(max_examples=60, deadline=None)
def test_idempotent_appends_are_exactly_once(plans):
    """However often batches are retried, every logical record appears in
    the log exactly once and in send order."""
    log = PartitionLog()
    expected = []
    sequence = 0
    value = 0
    for size, retries in plans:
        records = []
        for _ in range(size):
            records.append(Record(key="k", value=value))
            expected.append(value)
            value += 1
        batch = RecordBatch(
            records, producer_id=1, producer_epoch=0, base_sequence=sequence
        )
        sequence += size
        result = log.append_batch(batch)
        assert not result.duplicate
        for _ in range(retries):
            retry = log.append_batch(batch)
            assert retry.duplicate
            assert retry.base_offset == result.base_offset
    log.high_watermark = log.log_end_offset
    assert [r.value for r in log.read(0)] == expected


@st.composite
def txn_scripts(draw):
    """Interleaved transactional appends from 2 producers with random
    commit/abort outcomes."""
    steps = []
    open_txns = {}
    seqs = {1: 0, 2: 0}
    n = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n):
        pid = draw(st.sampled_from([1, 2]))
        if pid in open_txns and draw(st.booleans()):
            commit = draw(st.booleans())
            steps.append(("end", pid, commit))
            del open_txns[pid]
        else:
            value = draw(values)
            steps.append(("send", pid, value))
            open_txns[pid] = True
    for pid in list(open_txns):
        steps.append(("end", pid, draw(st.booleans())))
    return steps


@given(txn_scripts())
@settings(max_examples=60, deadline=None)
def test_read_committed_sees_exactly_committed_data(steps):
    """The visible (read-committed) log equals the committed sends, in
    order, for any interleaving of transactions and outcomes."""
    from repro.broker.fetch import fetch
    from repro.config import READ_COMMITTED

    log = PartitionLog()
    seqs = {1: 0, 2: 0}
    pending = {1: [], 2: []}
    committed = []
    for step in steps:
        if step[0] == "send":
            _, pid, value = step
            log.append_batch(
                RecordBatch(
                    [Record(key="k", value=(pid, value))],
                    producer_id=pid,
                    producer_epoch=0,
                    base_sequence=seqs[pid],
                    is_transactional=True,
                )
            )
            seqs[pid] += 1
            pending[pid].append((pid, value))
        else:
            _, pid, commit = step
            marker = COMMIT_MARKER if commit else ABORT_MARKER
            log.append_marker(marker, pid, 0)
            if commit:
                committed.extend(pending[pid])
            pending[pid] = []
    log.high_watermark = log.log_end_offset
    result = fetch(log, 0, max_records=10**6, isolation_level=READ_COMMITTED)
    visible = [r.value for r in result.records]
    assert sorted(visible) == sorted(committed)
    # Per-producer order is preserved.
    for pid in (1, 2):
        mine = [v for p, v in visible if p == pid]
        expected = [v for p, v in committed if p == pid]
        assert mine == expected


@given(txn_scripts())
@settings(max_examples=60, deadline=None)
def test_lso_never_exceeds_high_watermark(steps):
    log = PartitionLog()
    seqs = {1: 0, 2: 0}
    for step in steps:
        if step[0] == "send":
            _, pid, value = step
            log.append_batch(
                RecordBatch(
                    [Record(key="k", value=value)],
                    producer_id=pid,
                    producer_epoch=0,
                    base_sequence=seqs[pid],
                    is_transactional=True,
                )
            )
            seqs[pid] += 1
        else:
            _, pid, commit = step
            marker = COMMIT_MARKER if commit else ABORT_MARKER
            log.append_marker(marker, pid, 0)
        log.high_watermark = log.log_end_offset
        assert log.last_stable_offset <= log.high_watermark
        assert log.last_stable_offset >= 0


# -- the stored-batch log against the per-record log it replaced ---------------------


class FlatLog:
    """Reference model: the per-record rule the log followed while it stored
    one ``Record`` per record — a flat list built the way ``_do_append`` and
    ``append_marker`` built it, cut the way the offset-list bisects cut it.
    Sequence validation is not modelled: the driver only feeds it what the
    real log accepted."""

    def __init__(self):
        self.records, self.open, self.aborted = [], {}, []
        self.start = self.end = self.hw = 0

    @property
    def lso(self):
        return min([self.hw, *self.open.values()])

    def append(self, columns, pid, epoch, sequence, transactional):
        if transactional and pid not in self.open:
            self.open[pid] = self.end
        for i, (key, value, timestamp, headers) in enumerate(zip(*columns)):
            self.records.append(Record(
                key, value, timestamp, headers, self.end, pid, epoch,
                sequence if sequence < 0 else sequence + i, transactional,
            ))
            self.end += 1

    def marker(self, control_type, pid, epoch, timestamp):
        first = self.open.pop(pid, None)
        if control_type == ABORT_MARKER and first is not None:
            self.aborted.append(AbortedTxn(pid, first, self.end - 1))
        self.records.append(Record(
            None, None, timestamp, offset=self.end, producer_id=pid,
            producer_epoch=epoch, is_transactional=True, is_control=True,
            control_type=control_type,
        ))
        self.end += 1

    def truncate_to(self, offset):
        self.records = [r for r in self.records if r.offset < offset]
        self.end = self.records[-1].offset + 1 if self.records else offset
        self.hw = min(self.hw, self.end)

    def reset_to(self, offset):
        self.__init__()
        self.start = self.end = self.hw = offset

    def delete_records_before(self, offset):
        offset = min(offset, self.hw)
        if offset > self.start:
            self.records = [r for r in self.records if r.offset >= offset]
            self.start = offset
            self.aborted = [s for s in self.aborted if s.last_offset >= offset]

    def sync_from(self, leader):
        """``PartitionState._sync_follower`` for a follower that never
        appended on its own."""
        if self.start < leader.start:
            self.reset_to(leader.start)
        if self.end > leader.end:
            self.truncate_to(leader.end)
        self.records += [r for r in leader.records if r.offset >= self.end]
        self.open, self.aborted = dict(leader.open), list(leader.aborted)
        self.start, self.end, self.hw = leader.start, leader.end, leader.hw

    def read(self, from_offset, max_records, up_to_offset):
        return [
            r for r in self.records if from_offset <= r.offset < up_to_offset
        ][:max_records]


def assert_offsets_have_no_gap(log):
    """The stored batches' offsets, end to end, are every offset from the
    log start to the log end, and ``len(log)`` counts them."""
    offsets = [offset for batch in log._batches for offset in batch.offset_column()]
    assert offsets == list(range(log.log_start_offset, log.log_end_offset))
    assert len(log) == len(offsets)


def assert_matches_model(log, model, windows):
    assert list(log.records()) == model.records
    assert len(log) == len(log.records()) == len(model.records)
    assert (log.log_start_offset, log.log_end_offset) == (model.start, model.end)
    assert (log.high_watermark, log.last_stable_offset) == (model.hw, model.lso)
    assert log.open_transactions() == model.open
    assert log.aborted_transactions() == model.aborted
    span = model.end - model.start
    for lo, width, max_records in windows:
        from_offset = model.start + int(lo * span)
        up_to = from_offset + int(width * (model.end - from_offset)) + 1
        want = model.read(from_offset, max_records, up_to)
        got = log.read(from_offset, max_records, up_to)
        assert len(got) == len(want) and list(got) == want
        assert log.read(from_offset) == model.read(from_offset, 10**6, model.hw)


FRACTIONS = st.floats(min_value=0.0, max_value=1.0)
# One flat tuple per step, read according to its first field: (what, batch
# kind, producer id, batch size, two coin flips, where to cut).
MODEL_OPS = st.tuples(
    st.sampled_from(
        ["append"] * 6 + ["marker"] * 4 + ["sync"] * 3 + ["delete"] * 2
        + ["retry"] * 2 + ["gap", "bump", "truncate", "reset"]
    ),
    st.sampled_from(
        ["plain", "idempotent", "transactional", "transactional", "sequence-less"]
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.booleans(),
    FRACTIONS,
)


@given(
    st.lists(MODEL_OPS, min_size=12, max_size=60),
    st.lists(
        st.tuples(FRACTIONS, FRACTIONS, st.integers(min_value=1, max_value=12)),
        min_size=2, max_size=2,
    ),
)
@settings(max_examples=100, deadline=None)
@example(
    # One producer's seven batches in one epoch: a retry of any of the last
    # five is a duplicate (the latest, one record long, starts at the
    # producer's last sequence), one of an older batch is out of order, and
    # so is a batch that skips a sequence number.
    ops=[("append", "idempotent", 1, 2, False, False, 0.0)] * 6 + [
        ("append", "idempotent", 1, 1, False, False, 0.0),
        ("retry", "plain", 1, 1, False, False, 0.0),
        ("retry", "plain", 1, 1, False, False, 0.25),
        ("retry", "plain", 1, 1, False, False, 0.3),
        ("retry", "plain", 1, 1, False, False, 1.0),
        ("gap", "plain", 1, 1, False, False, 0.0),
        ("append", "idempotent", 1, 1, True, False, 0.0),
    ],
    windows=[(0.0, 1.0, 12), (0.5, 0.5, 3)],
)
def test_stored_batch_log_equals_the_per_record_model(ops, windows):
    """Slab and scalar appends, markers, retries, sequence gaps, epoch
    bumps, cuts inside batches and follower syncs in any order: every
    scalar accessor of the leader and of the follower reads exactly what a
    flat per-record log would hold, and their offsets have no gap. A retry of one of a producer's
    last five batches is a duplicate with the original offsets; a retry of
    an older batch, or a batch that skips a sequence number, is refused as
    out of order."""
    leader, follower = PartitionLog("leader"), PartitionLog("follower")
    models = {id(leader): FlatLog(), id(follower): FlatLog()}
    epochs = {pid: 0 for pid in (1, 2, 3)}
    # pid -> (batch, result) of every sequenced batch it appended since its
    # last marker or epoch bump, oldest first.
    sent = {}
    value = 0
    for name, kind, pid, size, flag, other, fraction in ops:
        lead = models[id(leader)]
        if name == "append":
            columns = (
                [f"k{(value + i) % 4}" for i in range(size)],
                [None if (value + i) % 5 == 0 else value + i for i in range(size)],
                [float(value + i) for i in range(size)],
                [{"n": value + i} for i in range(size)],
            )
            value += size
            pid, epoch, sequence = (-1, -1, -1) if kind == "plain" else (pid, epochs[pid], -1)
            if kind in ("idempotent", "transactional"):
                state = leader._producers.get(pid)
                fresh = state is None or state.epoch != epoch or not state.batches
                sequence = 0 if fresh else state.last_sequence + 1
            header = (pid, epoch, sequence, kind in ("transactional", "sequence-less"))
            if flag:
                batch = ColumnarSlab(*(list(c) for c in columns), *header)
            else:
                batch = RecordBatch([Record(*row) for row in zip(*columns)], *header)
            try:
                result = leader.append_batch(batch)
            except (InvalidProducerEpochError, OutOfOrderSequenceError):
                continue
            assert not result.duplicate
            assert result.base_offset == lead.end
            lead.append(columns, *header)
            assert result.last_offset == lead.end - 1
            if sequence >= 0:
                sent.setdefault(pid, []).append((batch, result))
        elif name == "retry" and sent.get(pid):
            history = sent[pid]
            index = min(int(fraction * len(history)), len(history) - 1)
            batch, first = history[index]
            if len(history) - index > 5:              # older than the cache
                with pytest.raises(OutOfOrderSequenceError):
                    leader.append_batch(batch)
            else:
                retry = leader.append_batch(batch)
                assert retry.duplicate
                assert (retry.base_offset, retry.last_offset) == (
                    first.base_offset, first.last_offset
                )
        elif name == "gap" and sent.get(pid):
            last = sent[pid][-1][0]
            base = last.base_sequence + len(last.keys) + 1
            gap = ColumnarSlab(
                ["k"] * size, [0] * size, [0.0] * size, [{}] * size,
                pid, epochs[pid], base, last.is_transactional,
            )
            with pytest.raises(OutOfOrderSequenceError):
                leader.append_batch(gap)
        elif name == "marker":
            epochs[pid] += other
            marker = (COMMIT_MARKER if flag else ABORT_MARKER, pid, epochs[pid], 7.0)
            assert leader.append_marker(*marker) == lead.end
            lead.marker(*marker)
            sent.pop(pid, None)
        elif name == "bump":
            epochs[pid] += 1
            sent.pop(pid, None)
        elif name == "sync":
            leader.high_watermark = lead.hw = lead.end
            PartitionState._sync_follower(follower, leader)
            models[id(follower)].sync_from(lead)
        elif name == "truncate":
            model = models[id(follower)]
            cut = model.start + int(fraction * (model.end - model.start))
            follower.truncate_to(cut)
            model.truncate_to(cut)
        elif name == "reset":
            follower.reset_to(leader.log_start_offset)
            models[id(follower)].reset_to(lead.start)
        elif name == "delete":
            leader.high_watermark = lead.hw = lead.end
            before = int(fraction * lead.end)
            for log in (leader, follower) if flag else (leader,):
                model = models[id(log)]
                kept = len(model.records)
                model.delete_records_before(before)
                assert log.delete_records_before(before) == kept - len(model.records)
        for log in (leader, follower):
            assert_offsets_have_no_gap(log)
            assert_matches_model(log, models[id(log)], windows)

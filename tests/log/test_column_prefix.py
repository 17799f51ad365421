"""The column prefix: a log read a third time slices its visible columns.

Behaviour tests, no clock. Which reads build the prefix: none of a log
read once front to back, or tailed as it grows and then read once more —
the memory guarantee for single-pass readers. And what a third read's
``columns()`` touch: the prefix alone, no stored batch.
"""

import pytest

from repro.broker.fetch import fetch
from repro.config import READ_COMMITTED, READ_SPECULATIVE
from repro.log.partition_log import PartitionLog
from repro.log.record import ABORT_MARKER, COMMIT_MARKER

from tests.log.test_stored_batches import slab


def grow(log, rounds):
    """Rounds of a committed or aborted 3-record transaction, alternating
    between two producers, with a plain batch every third round."""
    for i in range(rounds):
        pid = 1 + i % 2
        sequence = log._producers[pid].last_sequence + 1 if pid in log._producers else 0
        log.append_batch(slab(3, pid, sequence, transactional=True))
        log.append_marker(ABORT_MARKER if i % 5 == 4 else COMMIT_MARKER, pid, 0)
        if i % 3 == 0:
            log.append_batch(slab(2))
    log.high_watermark = log.log_end_offset
    return log


def read_pass(log, isolation, size=7):
    """One front-to-back pass in fetches of ``size`` records."""
    batches, position = [], log.log_start_offset
    while True:
        batch = fetch(log, position, size, isolation)
        if batch.next_offset == position:
            return batches
        batches.append(batch)
        position = batch.next_offset


def holds_no_prefix(log):
    return log._prefix == () and log._columned == 0


@pytest.mark.parametrize("isolation", [READ_COMMITTED, READ_SPECULATIVE])
def test_a_log_read_once_front_to_back_holds_no_prefix(isolation):
    log = grow(PartitionLog("once"), 60)
    read_pass(log, isolation)
    fetch(log, 0, 10**6, isolation)          # ... and once more, in one fetch
    assert holds_no_prefix(log)


def test_a_log_tailed_as_it_grows_then_read_once_more_holds_no_prefix():
    """A verifier that tails the output and checks it once at the end."""
    log = PartitionLog("tailed")
    position = 0
    for _ in range(20):
        grow(log, 3)
        position = fetch(log, position, 500, READ_COMMITTED).next_offset
    whole = fetch(log, 0, 10**6, READ_COMMITTED)
    assert whole and whole._window is None
    assert holds_no_prefix(log)


@pytest.mark.parametrize("isolation", [READ_COMMITTED, READ_SPECULATIVE])
def test_a_third_read_slices_the_prefix(isolation):
    log = grow(PartitionLog("thrice"), 60)
    passes = [read_pass(log, isolation) for _ in range(3)]
    assert not any(batch._window for batch in passes[0] + passes[1])
    assert all(batch._window for batch in passes[2])
    for batches in passes[1:]:
        assert [b.columns() for b in batches] == [b.columns() for b in passes[0]]
    # The prefix holds each visible record once, as far as the reads went.
    assert len(log._prefix[0]) == sum(batch.valid_count for batch in passes[0])


class Poisoned:
    """Stands in for a fetch result's stored batches: any use raises."""

    def _touched(self, *args):
        raise AssertionError("columns() touched a stored batch")

    __len__ = __bool__ = __iter__ = __getitem__ = __getattr__ = _touched


def test_a_third_reads_columns_touch_no_stored_batch():
    log = grow(PartitionLog("poisoned"), 60)
    want = [batch.columns() for batch in read_pass(log, READ_COMMITTED)]
    read_pass(log, READ_COMMITTED)
    third = read_pass(log, READ_COMMITTED)
    for batch in third:
        batch._batches = Poisoned()
    assert [batch.columns() for batch in third] == want

"""Key-based log compaction for changelog topics.

Kafka brokers compact changelog topics by removing records for which a
later record exists with the same key (Section 3.2 of the paper): the
compacted log is a complete snapshot of the latest value per key, which is
exactly what state-store restoration needs.

Rules implemented here:

* only records below the *dirty point* (we use the last stable offset) are
  eligible, so open-transaction data is never compacted away;
* control markers are dropped once everything before them is compacted
  (they carry no key);
* aborted records are dropped entirely — they were never visible;
* a tombstone (``value is None``) removes earlier records for the key; the
  tombstone itself is retained (delete-retention is modelled as "forever"
  unless ``drop_tombstones`` is set).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Set, Tuple

from repro.log.partition_log import AbortedTxn, PartitionLog
from repro.log.record import Record


def _survivors(
    rows: Iterable[Tuple[Any, Any, int]], drop_tombstones: bool
) -> Set[int]:
    """Offsets that survive among the *clean, visible* records, given as
    (key, value, offset) in offset order: per key the latest one, unless
    it is a dropped tombstone."""
    latest = {key: (value, offset) for key, value, offset in rows}
    return {
        offset
        for value, offset in latest.values()
        if not (drop_tombstones and value is None)
    }


def compact(
    records: List[Record],
    aborted: Iterable[AbortedTxn] = (),
    dirty_from: int = 2**63,
    drop_tombstones: bool = False,
) -> List[Record]:
    """Return the compacted form of ``records``.

    ``dirty_from``: offsets at or beyond this are kept untouched (not yet
    safe to compact). Offsets of retained records are preserved, so the
    result is a sparse but still offset-ordered log.
    """
    spans = [(a.first_offset, a.last_offset, a.producer_id) for a in aborted]

    def is_aborted(record: Record) -> bool:
        for first, last, pid in spans:
            if first <= record.offset <= last and record.producer_id == pid:
                return True
        return False

    # Records beyond the dirty point may still belong to open transactions,
    # so they must NOT shadow clean records: if the transaction aborts, the
    # older value is still the live one.
    keep = _survivors(
        (
            (r.key, r.value, r.offset)
            for r in records
            if r.offset < dirty_from and not r.is_control and not is_aborted(r)
        ),
        drop_tombstones,
    )
    return [r for r in records if r.offset >= dirty_from or r.offset in keep]


def compact_log(log: PartitionLog, drop_tombstones: bool = False) -> int:
    """Compact a partition log in place; returns records removed.

    The clean, visible records are what a read-committed fetch below the
    last stable offset returns, so the log's own visibility rule picks
    them, as columns."""
    before = len(log)
    dirty_from = log.last_stable_offset
    clean = log.read_columnar(
        log.log_start_offset, max_records=before, up_to_offset=dirty_from,
        filter_aborted=True,
    )
    offsets, _, keys, values, _ = clean.columns()
    log.retain_offsets(
        _survivors(zip(keys, values, offsets), drop_tombstones),
        below=dirty_from,
    )
    return before - len(log)

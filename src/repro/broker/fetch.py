"""The fetch path: isolation levels and transactional filtering.

Implements Section 4.2.3 of the paper. A read-committed fetch

* never returns records at or beyond the partition's last stable offset
  (LSO) — i.e. past the first offset of any still-open transaction — so a
  transaction's records become visible *atomically* when its commit marker
  lands;
* filters out records belonging to aborted transactions, using the log's
  aborted-transaction index;
* skips control (marker) records, which are protocol metadata, while still
  advancing the consumer's position across them.
"""

from __future__ import annotations

from repro.config import READ_COMMITTED, READ_SPECULATIVE, READ_UNCOMMITTED
from repro.log.columnar import ColumnarBatch
from repro.log.partition_log import PartitionLog


def fetch(
    log: PartitionLog,
    from_offset: int,
    max_records: int = 500,
    isolation_level: str = READ_UNCOMMITTED,
) -> ColumnarBatch:
    """Fetch visible records from ``log`` starting at ``from_offset``.

    The result is a :class:`ColumnarBatch` — the visible run of the log's
    stored batches — with no per-record scanning or materialization:
    marker skipping and aborted-span filtering are decided per stored
    batch inside :meth:`PartitionLog.read_columnar`, which walks the
    batches of a fetch near the log end and finds a longer fetch's run
    through the log's scan index, with no Python step per batch. A
    filtering fetch of records read twice before gets a window on the
    log's column prefix, so its ``columns()`` are five slices.
    ``result.records`` is the scalar view for callers that want one.
    """
    if isolation_level == READ_COMMITTED:
        limit = log.last_stable_offset
    elif isolation_level in (READ_UNCOMMITTED, READ_SPECULATIVE):
        # Speculative reads see past the LSO (open transactions included)
        # but, unlike plain read_uncommitted, still filter aborted data.
        limit = log.high_watermark
    else:
        raise ValueError(f"unknown isolation level: {isolation_level!r}")

    from_offset = max(from_offset, log.log_start_offset)
    if from_offset >= limit:
        return ColumnarBatch(
            from_offset, log.high_watermark, log.last_stable_offset
        )
    return log.read_columnar(
        from_offset,
        max_records=max_records,
        up_to_offset=limit,
        filter_aborted=isolation_level in (READ_COMMITTED, READ_SPECULATIVE),
    )

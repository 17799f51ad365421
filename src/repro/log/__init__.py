"""Append-only partition logs: the storage primitive everything builds on."""

from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
)
from repro.log.partition_log import AbortedTxn, PartitionLog

__all__ = [
    "Record",
    "RecordBatch",
    "COMMIT_MARKER",
    "ABORT_MARKER",
    "PartitionLog",
    "AbortedTxn",
]

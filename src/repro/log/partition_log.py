"""The append-only partition log.

This is the storage primitive the whole paper builds on: an immutable,
offset-ordered sequence of records, stored the way it arrives — as
*batches*. An append adopts the producer's column lists by reference as
one :class:`~repro.log.columnar.StoredBatch`, a transaction marker is a
one-record control batch, and a follower holds the leader's stored
batches by reference, so append, marker append and follower sync cost
O(batches), never O(records); ``Record`` objects exist only behind the
lazy scalar views (:meth:`PartitionLog.read`, :meth:`PartitionLog.records`).
On top of plain appends the log implements

* **idempotent appends** (Section 4.1): per-producer-id sequence validation
  with a bounded cache of recent batch metadata, so a retried batch (after a
  lost acknowledgement) is recognised and not appended twice;
* **transactional visibility** (Section 4.2.3): the log tracks the first
  offset of every open transaction and exposes the *last stable offset*
  (LSO). Read-committed consumers never read past the LSO, and spans of
  aborted transactions are recorded in an index so they can be filtered
  out — a whole stored batch at a time, since a batch has one producer
  and a transaction's span begins and ends on batch boundaries;
* **reads with no Python step per batch**: a read near the log end
  walks its stored batches, and a longer one finds its run through a
  *scan index* — cumulative record counts over a prefix of the stored
  batches, plus which batches hold data and which of those are visible —
  with a few bisects and one ``compress``. Reads build the index; every
  cut that moves a batch, and every aborted span indexed, cuts it back;
* **log compaction** hooks for changelog topics, and ``delete_records`` for
  repartition-topic truncation.

The log itself is single-writer (the partition leader); replication shares
the appended batches (:meth:`PartitionLog.replicate_mirror`, driven by
:class:`repro.broker.partition.PartitionState`). Stored batches are never
mutated and never merged: whatever cuts inside one (truncation, deletion,
compaction) replaces it with a new batch built from slices.
"""

from __future__ import annotations

import bisect
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import attrgetter, gt, is_, mul
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import (
    InvalidProducerEpochError,
    OffsetOutOfRangeError,
    OutOfOrderSequenceError,
)
from repro.log.columnar import ColumnarBatch, ColumnarSlab, RecordView, StoredBatch
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    NO_HEADERS,
    NO_PRODUCER_ID,
    NO_SEQUENCE,
)

# How many recent batches of metadata to retain per producer id for
# duplicate detection (Kafka retains 5).
_PRODUCER_BATCH_CACHE = 5

# Bisect keys: the stored-batch list is sorted by base offset, the aborted
# spans by last offset.
_BASE_OFFSET = attrgetter("base_offset")
_LAST_OFFSET = attrgetter("last_offset")
# What the scan index reads of a stored batch, in C.
_KEYS = attrgetter("keys")
_CONTROL_TYPE = attrgetter("control_type")
_PRODUCER_ID = attrgetter("producer_id")

# A read that starts fewer stored batches than this before the log end
# walks them; a longer one jumps through the scan index. Indexing a batch
# costs about three walks of it and pays back only when later reads come
# back to it, which a tail read of a growing log never does: the
# benchmark's tail reads start at most 10 batches back (EXPERIMENTS.md,
# "Long fetches jump instead of walking").
_JUMP_MIN_BATCHES = 32


@dataclass(frozen=True, slots=True)
class AbortedTxn:
    """Index entry: records of ``producer_id`` in [first_offset, last_offset]
    belong to an aborted transaction and must be filtered for read_committed."""

    producer_id: int
    first_offset: int
    last_offset: int


@dataclass
class AppendResult:
    """Outcome of an (idempotent) append."""

    base_offset: int
    last_offset: int
    duplicate: bool = False


class _BatchMeta(NamedTuple):
    """Immutable, so a follower sync shares it with the leader by reference."""

    base_sequence: int
    last_sequence: int
    base_offset: int
    last_offset: int


class _ProducerIdState:
    """Sequence/epoch bookkeeping for one producer id on one partition."""

    def __init__(self, epoch: int, batches: Iterable[_BatchMeta] = ()) -> None:
        self.epoch = epoch
        self.batches: Deque[_BatchMeta] = deque(batches, _PRODUCER_BATCH_CACHE)

    @property
    def last_sequence(self) -> int:
        if not self.batches:
            return NO_SEQUENCE
        return self.batches[-1].last_sequence

    def find_duplicate(self, batch: ColumnarSlab) -> Optional[_BatchMeta]:
        """Metadata of an already-appended copy of ``batch``, if any.

        Containment (not just exact equality) counts as a duplicate: a
        newly elected leader rebuilds its batch metadata from replicated
        records, where adjacent batches of one producer can merge into a
        single sequence run. A retried batch whose sequence range lies
        inside such a run was appended before the failover and must not be
        appended again. Offsets within a run are contiguous (batches append
        atomically), so the original offsets fall out arithmetically.
        """
        for meta in self.batches:
            if (
                meta.base_sequence <= batch.base_sequence
                and batch.last_sequence <= meta.last_sequence
            ):
                delta = batch.base_sequence - meta.base_sequence
                span = batch.last_sequence - batch.base_sequence
                return _BatchMeta(
                    batch.base_sequence,
                    batch.last_sequence,
                    meta.base_offset + delta,
                    meta.base_offset + delta + span,
                )
        return None


class PartitionLog:
    """One partition's log: stored batches, producer state, txn visibility."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        # Sorted by base offset, non-overlapping; entries are immutable and
        # may be shared with other replicas' logs.
        self._batches: List[StoredBatch] = []
        self._count = 0                      # retained records
        self._next_offset = 0
        self.log_start_offset = 0
        self.high_watermark = 0              # managed by replication
        self._producers: Dict[int, _ProducerIdState] = {}
        # producer_id -> first offset of its currently open transaction
        self._open_txns: Dict[int, int] = {}
        # Aborted spans in marker order, i.e. sorted by last offset.
        self._aborted: List[AbortedTxn] = []
        # Interval index over `_aborted`: producer_id -> parallel, sorted
        # (first_offsets, last_offsets, spans). One producer's transactions
        # are serial, so its spans are disjoint and both offset lists are
        # ascending — membership and overlap queries are a bisect away.
        self._aborted_index: Dict[int, Tuple[List[int], List[int], List[AbortedTxn]]] = {}
        # truncate_to lowered the end, or reset_to: producer and transaction
        # state may describe what is gone. The next replicate_mirror heals it.
        self._stale = False
        # Scan index over the prefix ``_batches[:_indexed]`` (_index_to).
        # _counts: for each i, the records of all batches, of data batches
        # and of visible data batches (outside aborted spans) before batch
        # i — one entry more than batches. _masks: a byte a batch saying
        # whether it holds data, and whether it is visible.
        self._indexed = 0
        self._counts: Tuple[array, ...] = ()
        self._masks: Tuple[bytearray, ...] = ()

    # -- basic accessors -------------------------------------------------------

    @property
    def log_end_offset(self) -> int:
        """Offset that the next appended record will receive."""
        return self._next_offset

    @property
    def last_stable_offset(self) -> int:
        """First offset of the earliest open transaction, else the high
        watermark. Read-committed fetches are capped here."""
        if self._open_txns:
            return min(min(self._open_txns.values()), self.high_watermark)
        return self.high_watermark

    def records(self) -> RecordView:
        """All retained records, oldest first (includes control markers):
        a lazy scalar view — ``len()`` is free, and a stored batch builds
        its ``Record`` objects the first time any view touches them."""
        batches = self._batches
        return RecordView(
            list(batches), 0, len(batches[-1]) if batches else 0, self._count
        )

    def __len__(self) -> int:
        return self._count

    def open_transactions(self) -> Dict[int, int]:
        """producer_id -> first offset of its open transaction.

        Read-only view of the live mapping — do not mutate.
        """
        return self._open_txns

    def aborted_transactions(self) -> List[AbortedTxn]:
        """All aborted-transaction spans. Read-only view — do not mutate."""
        return self._aborted

    # -- aborted-transaction interval queries ----------------------------------

    def _index_aborted(self, span: AbortedTxn) -> None:
        self._aborted.append(span)
        entry = self._aborted_index.get(span.producer_id)
        if entry is None:
            entry = ([], [], [])
            self._aborted_index[span.producer_id] = entry
        firsts, lasts, spans = entry
        firsts.append(span.first_offset)
        lasts.append(span.last_offset)
        spans.append(span)
        # One producer's spans are indexed in offset order, so the new span
        # changes is_offset_aborted only from its first offset on.
        self._cut_scan_index(
            bisect.bisect_left(self._batches, span.first_offset, key=_BASE_OFFSET)
        )

    def is_offset_aborted(self, producer_id: int, offset: int) -> bool:
        """True iff ``offset`` lies in an aborted span of ``producer_id``.

        O(log aborted-spans-of-producer) via bisect on the interval index.
        """
        entry = self._aborted_index.get(producer_id)
        if entry is None:
            return False
        firsts, lasts, _ = entry
        i = bisect.bisect_right(firsts, offset) - 1
        return i >= 0 and lasts[i] >= offset

    def producer_aborted_in_range(
        self, producer_id: int, first_offset: int, last_offset: int
    ) -> bool:
        """Any aborted span of ``producer_id`` intersecting the *inclusive*
        range ``[first_offset, last_offset]``?"""
        entry = self._aborted_index.get(producer_id)
        if entry is None:
            return False
        firsts, lasts, _ = entry
        i = bisect.bisect_left(lasts, first_offset)
        return i < len(firsts) and firsts[i] <= last_offset

    # -- appends ---------------------------------------------------------------

    def append_batch(self, batch: ColumnarSlab) -> AppendResult:
        """Append a producer batch with idempotence validation.

        Returns the assigned offsets; a recognised retry of an already
        appended batch returns the *original* offsets with
        ``duplicate=True`` instead of appending again. The slab's column
        lists are adopted by reference: the sender must not touch them
        again.
        """
        if batch.producer_id == NO_PRODUCER_ID:
            return self._adopt(batch)

        state = self._producers.get(batch.producer_id)
        if state is None:
            state = _ProducerIdState(batch.producer_epoch)
            self._producers[batch.producer_id] = state
        elif batch.producer_epoch < state.epoch:
            raise InvalidProducerEpochError(
                f"{self.name}: producer {batch.producer_id} epoch "
                f"{batch.producer_epoch} < current {state.epoch}"
            )
        elif batch.producer_epoch > state.epoch:
            # A new producer incarnation must restart sequencing at 0.
            if batch.base_sequence not in (0, NO_SEQUENCE):
                raise OutOfOrderSequenceError(
                    f"{self.name}: new epoch {batch.producer_epoch} for producer "
                    f"{batch.producer_id} must begin at sequence 0, got "
                    f"{batch.base_sequence}"
                )
            state.epoch = batch.producer_epoch
            state.batches.clear()

        if batch.base_sequence == NO_SEQUENCE:
            # Sequence-less batch (e.g. a coordinator-side offset commit):
            # epoch-validated above, but exempt from idempotence dedup —
            # two such batches are distinct appends, not retries.
            return self._adopt(batch)

        duplicate = state.find_duplicate(batch)
        if duplicate is not None:
            return AppendResult(
                duplicate.base_offset, duplicate.last_offset, duplicate=True
            )

        expected = state.last_sequence + 1
        if state.last_sequence != NO_SEQUENCE and batch.base_sequence != expected:
            raise OutOfOrderSequenceError(
                f"{self.name}: producer {batch.producer_id} sent sequence "
                f"{batch.base_sequence}, expected {expected}"
            )

        result = self._adopt(batch)
        state.batches.append(
            _BatchMeta(
                batch.base_sequence,
                batch.last_sequence,
                result.base_offset,
                result.last_offset,
            )
        )
        return result

    def _adopt(self, batch: ColumnarSlab) -> AppendResult:
        """Store ``batch``'s column lists, as they are, at the log end."""
        base_offset = self._next_offset
        count = len(batch.keys)
        pid = batch.producer_id
        self._batches.append(
            StoredBatch(
                base_offset,
                batch.keys,
                batch.values,
                batch.timestamps,
                batch.headers,
                pid,
                batch.producer_epoch,
                batch.base_sequence,
                batch.is_transactional,
            )
        )
        self._count += count
        self._next_offset = base_offset + count
        if batch.is_transactional and pid not in self._open_txns:
            self._open_txns[pid] = base_offset
        return AppendResult(base_offset, base_offset + count - 1)

    def append_marker(
        self,
        control_type: str,
        producer_id: int,
        producer_epoch: int,
        timestamp: float = -1.0,
    ) -> int:
        """Append a transaction commit/abort marker — a one-record control
        batch — closing the producer's open transaction on this partition.
        Returns the marker's offset."""
        if control_type not in (COMMIT_MARKER, ABORT_MARKER):
            raise ValueError(f"unknown marker type: {control_type!r}")
        state = self._producers.get(producer_id)
        if state is not None and producer_epoch > state.epoch:
            # Markers carry the (possibly bumped) epoch: once written, any
            # still-running zombie with the old epoch is fenced on this
            # partition too.
            state.epoch = producer_epoch
            state.batches.clear()
        first_offset = self._open_txns.pop(producer_id, None)
        offset = self._next_offset
        self._batches.append(
            StoredBatch(
                offset, [None], [None], [timestamp], [NO_HEADERS],
                producer_id, producer_epoch, NO_SEQUENCE, True, control_type,
            )
        )
        self._count += 1
        self._next_offset = offset + 1
        if control_type == ABORT_MARKER and first_offset is not None:
            self._index_aborted(AbortedTxn(producer_id, first_offset, offset - 1))
        return offset

    def replicate_mirror(self, source: "PartitionLog") -> None:
        """Follower fetch against a live leader log: take the missing
        suffix of stored batches *by reference* and mirror the leader's
        index state for what that suffix touched (DESIGN.md, "Replication:
        what a follower sync touches").

        Valid only when this log is a prefix of ``source`` (which
        :meth:`repro.broker.partition.PartitionState._sync_follower`
        guarantees by truncating or resetting first); the sync runs to the
        leader's log end. The leader changes a producer's sequence or
        transaction state only while appending a batch of that producer
        id, so:

        * the batch list grows by the leader's batches from this log's
          end on, found by walking back from the leader's end (a follower
          that was cut inside a batch first takes the rest of it as a
          batch of its own);
        * the producer ids *heading the suffix's batches* get their
          sequence state and open-transaction entry replaced by the
          leader's; every other producer's state is left alone;
        * aborted spans are indexed only if the suffix holds a control
          batch, in leader order (``_aborted`` is sorted by
          ``last_offset``: an abort marker at offset ``m`` indexes a span
          ending at ``m - 1``).

        After :meth:`truncate_to` lowered the end or :meth:`reset_to`, or
        over a suffix with holes (compaction can take a producer's records
        out of it entirely), that one sync mirrors every producer id and
        the whole aborted index instead.
        """
        start = self._next_offset
        end = source._next_offset
        if start >= end and not self._stale:
            return
        if start < source.log_start_offset:
            raise ValueError(
                f"{self.name}: cannot mirror from offset {start}; source "
                f"log starts at {source.log_start_offset}"
            )
        # Walk back from the leader's end over the batches this log lacks:
        # the sync costs what it copies, not a search of the whole log.
        theirs = source._batches
        idx = len(theirs)
        copied = 0
        markers = 0
        pids: Set[int] = set()
        while idx and theirs[idx - 1].base_offset >= start:
            idx -= 1
            batch = theirs[idx]
            copied += len(batch.keys)
            pids.add(batch.producer_id)
            if batch.control_type is not None:
                markers += 1
        suffix = theirs[idx:]
        if idx and theirs[idx - 1].end_offset > start:
            straddler = theirs[idx - 1]
            rest = straddler.slice(straddler.position(start))
            suffix.insert(0, rest)
            copied += len(rest)
            pids.add(rest.producer_id)
        self._batches += suffix
        self._count += copied
        self._next_offset = end

        spans: Iterable[AbortedTxn] = ()
        if self._stale or copied != end - start:
            self._stale = False
            self._producers.clear()
            self._open_txns.clear()
            self._aborted.clear()
            self._aborted_index.clear()
            self._cut_scan_index(0)
            pids = source._producers.keys() | source._open_txns.keys()
            spans = source._aborted
        elif markers:
            # k markers indexed at most the last k spans, each ending
            # at >= start - 1; earlier markers' spans end below that.
            spans = [
                span
                for span in source._aborted[-markers:]
                if span.last_offset >= start - 1
            ]
        for pid in pids:
            state = source._producers.get(pid)
            if state is not None:
                self._producers[pid] = _ProducerIdState(state.epoch, state.batches)
            first_offset = source._open_txns.get(pid)
            if first_offset is None:
                self._open_txns.pop(pid, None)
            else:
                self._open_txns[pid] = first_offset
        for span in spans:
            self._index_aborted(span)

    # -- reads -------------------------------------------------------------------

    def _scan(
        self,
        from_offset: int,
        max_records: int,
        limit: int,
        mask_controls: bool,
        filter_aborted: bool,
    ) -> Tuple[List[StoredBatch], int, int, int, int, int]:
        """The visible run over ``[from_offset, limit)``, up to
        ``max_records`` visible records, visibility decided per *batch*:
        ``(batches, lo, hi, visible, scanned, next_offset)`` — the first
        batch starts at position ``lo``, the last stops before ``hi``.
        ``mask_controls`` hides control batches; ``filter_aborted``, which
        comes only with it, hides the batches of aborted spans too.

        A read that starts :data:`_JUMP_MIN_BATCHES` stored batches or more
        before the log end jumps through the scan index (:meth:`_jump`); a
        shorter one — a Streams intake, a tail read — walks
        (:meth:`_walk`), which is also the index's test oracle.
        """
        if from_offset < self.log_start_offset or from_offset > self._next_offset:
            raise OffsetOutOfRangeError(
                f"{self.name}: offset {from_offset} outside "
                f"[{self.log_start_offset}, {self._next_offset}]"
            )
        batches = self._batches
        first = max(bisect.bisect_right(batches, from_offset, key=_BASE_OFFSET) - 1, 0)
        scan = self._walk if len(batches) - first < _JUMP_MIN_BATCHES else self._jump
        return scan(first, from_offset, max_records, limit, mask_controls, filter_aborted)

    def _walk(
        self,
        first: int,
        from_offset: int,
        max_records: int,
        limit: int,
        mask_controls: bool,
        filter_aborted: bool,
    ) -> Tuple[List[StoredBatch], int, int, int, int, int]:
        """:meth:`_scan` one step per stored batch from ``_batches[first]``,
        the last batch at or before ``from_offset`` (or the first one),
        until ``max_records`` visible records are found."""
        batches = self._batches
        aborted = self._aborted_index if filter_aborted else None
        run: List[StoredBatch] = []
        lo = hi = visible = scanned = 0
        last: Optional[StoredBatch] = None
        for batch in islice(batches, first, None):
            base = batch.base_offset
            if base >= limit or visible >= max_records:
                break
            # Positions [a, b) of the batch lie inside the window; only the
            # first and the last batch of a scan can be cut.
            a = 0 if base >= from_offset else batch.position(from_offset)
            b = len(batch.keys) if batch.end_offset <= limit else batch.position(limit)
            if a >= b:
                continue
            if mask_controls and batch.control_type is not None:
                masked = True
            elif aborted:
                # A batch has one producer and a transaction's span begins
                # and ends on batch boundaries, so any one offset of the
                # batch decides for all of it (is_offset_aborted, inlined).
                entry = aborted.get(batch.producer_id)
                if entry is None:
                    masked = False
                else:
                    span = bisect.bisect_right(entry[0], base) - 1
                    masked = span >= 0 and entry[1][span] >= base
            else:
                masked = False
            if not masked:
                if visible + (b - a) > max_records:
                    b = a + max_records - visible
                if not run:
                    lo = a
                run.append(batch)
                hi = b
                visible += b - a
            scanned += b - a
            last, end = batch, b
        next_offset = from_offset if last is None else last.offset_at(end - 1) + 1
        return run, lo, hi, visible, scanned, next_offset

    def _jump(
        self,
        first: int,
        from_offset: int,
        max_records: int,
        limit: int,
        mask_controls: bool,
        filter_aborted: bool,
    ) -> Tuple[List[StoredBatch], int, int, int, int, int]:
        """:meth:`_walk`'s result through the scan index, with no step per
        batch: a bisect for the batches below ``limit``, one on the mode's
        cumulative count for the batch that fills ``max_records``, and one
        ``compress`` of the mode's mask for the run. Only the first and the
        last batch of the window are looked at, to cut them."""
        batches = self._batches
        stop = bisect.bisect_left(batches, limit, first, key=_BASE_OFFSET)
        if stop <= first or max_records <= 0:
            return [], 0, 0, 0, 0, from_offset
        head, tail = batches[first], batches[stop - 1]
        # Positions [a, b) of the window's first and last batch.
        a = 0 if head.base_offset >= from_offset else head.position(from_offset)
        b = len(tail.keys) if tail.end_offset <= limit else tail.position(limit)
        if first == stop - 1:
            if a >= b:
                return [], 0, 0, 0, 0, from_offset
        elif a == len(head.keys):
            # from_offset lies past the head's last retained record.
            first += 1
            a = 0
        self._index_to(stop)
        cum_all, cum_data, cum_visible = self._counts
        if not mask_controls:
            cum, mask = cum_all, None
        elif filter_aborted:
            cum, mask = cum_visible, self._masks[1]
        else:
            cum, mask = cum_data, self._masks[0]
        counted_head = mask is None or mask[first]
        # Counted positions before the window, and inside it.
        before = cum[first] + (a if counted_head else 0)
        total = cum[stop] - before
        if mask is None or mask[stop - 1]:
            total -= len(tail.keys) - b
        if total < max_records:
            k, end, visible = stop - 1, b, total
        else:
            # Batch k holds the record that fills the budget.
            k = bisect.bisect_left(cum, before + max_records, first + 1, stop + 1) - 1
            end, visible = before + max_records - cum[k], max_records
        last = batches[k]
        scanned = cum_all[k + 1] - cum_all[first] - a - (len(last.keys) - end)
        next_offset = last.offset_at(end - 1) + 1
        if mask is None:
            run = batches[first:k + 1]
        else:
            run = list(compress(batches[first:k + 1], mask[first:k + 1]))
        if not run:
            return run, 0, 0, 0, scanned, next_offset
        lo = a if counted_head else 0
        hi = end if mask is None or mask[k] else len(run[-1].keys)
        return run, lo, hi, visible, scanned, next_offset

    def _index_to(self, stop: int) -> None:
        """Extend the scan index over ``_batches[:stop]``: a few C-level
        passes over the batches it does not cover yet. A batch is visible
        when it holds data and :meth:`is_offset_aborted` says no for its
        producer and base offset — the walk's own test."""
        n = self._indexed
        if n >= stop:
            return
        new = self._batches[n:stop]
        lengths = list(map(len, map(_KEYS, new)))
        data = bytes(map(is_, map(_CONTROL_TYPE, new), repeat(None)))
        aborted = map(
            self.is_offset_aborted, map(_PRODUCER_ID, new), map(_BASE_OFFSET, new)
        )
        visible = bytes(map(gt, data, aborted))
        if n == 0:
            # Built afresh: the first long read, or one after a cut to nothing.
            self._counts = (array("q", [0]), array("q", [0]), array("q", [0]))
            self._masks = (bytearray(), bytearray())
        counted = (lengths, map(mul, lengths, data), map(mul, lengths, visible))
        for cum, counts in zip(self._counts, counted):
            cum[n:] = array("q", accumulate(counts, initial=cum[n]))
        for mask, bits in zip(self._masks, (data, visible)):
            mask[n:] = bits
        self._indexed = stop

    def _cut_scan_index(self, batch: int) -> None:
        """Forget the scan index from stored batch ``batch`` on: called by
        whatever moves a batch or changes its visibility (appends need
        not)."""
        if batch < self._indexed:
            self._indexed = batch

    def read(
        self,
        from_offset: int,
        max_records: int = 1_000_000,
        up_to_offset: Optional[int] = None,
    ) -> RecordView:
        """Records with ``from_offset <= offset < up_to_offset`` (default:
        the high watermark), oldest first, including control markers. At
        most ``max_records`` are returned — as a lazy scalar view, so the
        work done is proportional to the batches covered until a record is
        touched.

        Raises OffsetOutOfRangeError if ``from_offset`` precedes the log
        start (records were deleted) or exceeds the log end.
        """
        limit = self.high_watermark if up_to_offset is None else up_to_offset
        run, lo, hi, count, _, _ = self._scan(
            from_offset, max_records, limit, False, False
        )
        return RecordView(run, lo, hi, count)

    def read_columnar(
        self,
        from_offset: int,
        max_records: int = 1_000_000,
        up_to_offset: Optional[int] = None,
        filter_aborted: bool = False,
    ) -> ColumnarBatch:
        """The fetch read: :meth:`read`'s window with visibility filtering
        built in — the one implementation of Section 4.2.3's rule.

        Returns a :class:`ColumnarBatch` over exactly the visible records:
        control batches are always left out, and with ``filter_aborted``
        the batches inside aborted spans of the interval index are too.
        No per-record work happens here — visibility is decided per stored
        batch, and ``from_offset`` / ``up_to_offset`` / ``max_records`` may
        still cut inside the first and the last one.

        ``next_offset`` advances past every *scanned* position (including
        masked ones), and scanning stops as soon as ``max_records`` valid
        records are found.
        """
        limit = self.high_watermark if up_to_offset is None else up_to_offset
        run, lo, hi, valid, scanned, next_offset = self._scan(
            from_offset, max_records, limit, True, filter_aborted
        )
        return ColumnarBatch(
            next_offset, self.high_watermark, self.last_stable_offset,
            run, lo, hi, valid, scanned,
        )

    # -- cuts (copy-on-write: stored batches may be shared) ------------------------

    def truncate_to(self, offset: int) -> None:
        """Remove records with offsets >= ``offset`` (follower reconciliation)."""
        batches = self._batches
        keep = bisect.bisect_left(batches, offset, key=_BASE_OFFSET)
        head: Optional[StoredBatch] = None
        if keep and batches[keep - 1].end_offset > offset:
            keep -= 1
            head = batches[keep].slice(0, batches[keep].position(offset))
        if keep < len(batches):
            self._count -= sum(len(batch.keys) for batch in batches[keep:])
            del batches[keep:]
            self._cut_scan_index(keep)
            if head is not None:
                batches.append(head)
                self._count += len(head)
        end = batches[-1].end_offset if batches else offset
        if end < self._next_offset:
            # Also when no batch went: compaction may have emptied the
            # tail, and the index state still names what it held.
            self._stale = True
        self._next_offset = end
        self.high_watermark = min(self.high_watermark, self._next_offset)

    def reset_to(self, offset: int) -> None:
        """Discard everything and restart the log at ``offset`` (a follower
        resyncing against a leader whose older records were deleted)."""
        self._batches.clear()
        self._count = 0
        self._next_offset = offset
        self.log_start_offset = offset
        self.high_watermark = offset
        self._producers.clear()
        self._open_txns.clear()
        self._aborted.clear()
        self._aborted_index.clear()
        self._cut_scan_index(0)
        # Producers whose records the leader already deleted still have
        # sequence state there; no suffix will ever name them.
        self._stale = True

    def delete_records_before(self, offset: int) -> int:
        """Advance the log start offset (repartition-topic purge), and
        forget the aborted spans that end below it.

        Returns how many records were physically removed.
        """
        offset = min(offset, self.high_watermark)
        if offset <= self.log_start_offset:
            return 0
        batches = self._batches
        gone = bisect.bisect_left(batches, offset, key=_BASE_OFFSET)
        tail: Optional[StoredBatch] = None
        if gone and batches[gone - 1].end_offset > offset:
            straddler = batches[gone - 1]
            tail = straddler.slice(straddler.position(offset))
        removed = sum(len(batch.keys) for batch in batches[:gone])
        if tail is not None:
            removed -= len(tail)
            batches[:gone] = [tail]
        else:
            del batches[:gone]
        self._cut_scan_index(0)
        self._count -= removed
        self.log_start_offset = offset
        # Forget the spans that lie wholly below the new start: nothing they
        # could mask is retained. Spans are indexed in marker order, so both
        # the list and each producer's entry lose a prefix.
        aborted = self._aborted
        if aborted and aborted[0].last_offset < offset:
            del aborted[: bisect.bisect_left(aborted, offset, key=_LAST_OFFSET)]
            index = self._aborted_index
            for pid in list(index):
                firsts, lasts, spans = index[pid]
                pruned = bisect.bisect_left(lasts, offset)
                if pruned == len(lasts):
                    del index[pid]
                elif pruned:
                    del firsts[:pruned], lasts[:pruned], spans[:pruned]
        return removed

    # -- compaction hook ---------------------------------------------------------

    def retain_offsets(self, keep: Set[int], below: int) -> None:
        """Drop every record below offset ``below`` whose offset is not in
        ``keep`` (log compaction). Offsets of retained records stay; a
        batch that loses records is replaced, one that loses all of them
        disappears."""
        compacted: List[StoredBatch] = []
        for batch in self._batches:
            if batch.base_offset < below:
                offsets = batch.offset_column()
                kept = [
                    i for i, o in enumerate(offsets) if o >= below or o in keep
                ]
                if len(kept) < len(offsets):
                    self._count -= len(offsets) - len(kept)
                    if kept:
                        compacted.append(batch.take(kept))
                    continue
            compacted.append(batch)
        self._batches = compacted
        self._cut_scan_index(0)

    # -- queries used by coordinators ---------------------------------------------

    def last_timestamp(self) -> float:
        if not self._batches:
            return -1.0
        return self._batches[-1].timestamps[-1]

"""Record types flowing through a streams topology.

A :class:`StreamRecord` is the unit processors exchange. Table-typed
operators forward :class:`Change` values carrying both the *new* and the
*old* result: the paper's revision mechanism requires downstream operators
to retract the effect of the prior result before accumulating the update
(Section 5), so both must travel together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, List, Mapping, NamedTuple, Optional

from repro.log.record import NO_HEADERS


@dataclass(slots=True)
class StreamRecord:
    """One record as seen by processors inside a task."""

    key: Any
    value: Any
    timestamp: float
    headers: Mapping[str, Any] = field(default_factory=lambda: NO_HEADERS)

    # Direct construction, not ``dataclasses.replace``: a scalar operator
    # makes one copy per record. ``headers`` — untraced, the very mapping
    # the source log holds, read-only — is shared with the original.

    def with_kv(self, key: Any, value: Any) -> "StreamRecord":
        return StreamRecord(key, value, self.timestamp, self.headers)

    def with_value(self, value: Any) -> "StreamRecord":
        return StreamRecord(self.key, value, self.timestamp, self.headers)


class ColumnChunk:
    """A run of records as parallel columns: the unit a task processes
    and the processors of one sub-topology exchange.

    Position ``i`` across the four lists is one record (a
    :class:`StreamRecord` inside ``Processor.process``). Vectorised
    processors transform whole columns in a single pass and forward a new
    (or the same) chunk; columns are never mutated in place, so unchanged
    columns are shared by reference between stages.

    ``stream_times`` is the task stream time a processor sees at each
    position when records are processed one at a time. ``None`` means the
    chunk still has one position per record of the task's source run, so
    that value is the running maximum of the timestamps on top of the
    pre-chunk stream time.
    An operator that drops or multiplies positions (null keys, unmatched
    joins, late records, filters) fills the column in, because the records
    it did not forward advanced stream time all the same.

    ``fetched_at``: traced, when a source chunk's batch was fetched (a
    chunk never spans two).
    """

    __slots__ = (
        "keys", "values", "timestamps", "headers", "stream_times", "fetched_at",
    )

    def __init__(
        self,
        keys: list,
        values: list,
        timestamps: list,
        headers: list,
        stream_times: Optional[list] = None,
        fetched_at: Optional[float] = None,
    ) -> None:
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self.headers = headers
        self.stream_times = stream_times
        self.fetched_at = fetched_at

    def stream_times_from(self, stream_time: float) -> List[float]:
        """Per-position stream time, given the task's pre-chunk value
        (``context.stream_time`` during ``process_batch``)."""
        if self.stream_times is not None:
            return self.stream_times
        times = list(accumulate(self.timestamps, max, initial=stream_time))
        del times[0]
        return times

    def with_values(self, values: list) -> "ColumnChunk":
        """The same records with a new value column (one value each)."""
        return ColumnChunk(
            self.keys, values, self.timestamps, self.headers, self.stream_times
        )

    def take(self, positions: List[int], stream_time: float) -> "ColumnChunk":
        """The records at ``positions`` (ascending) as a new chunk that
        remembers the stream time each one was processed at; the caller
        passes the pre-chunk value, as for :meth:`stream_times_from`."""
        keys, values, timestamps, headers = (
            self.keys, self.values, self.timestamps, self.headers
        )
        stream_times = self.stream_times_from(stream_time)
        return ColumnChunk(
            [keys[i] for i in positions],
            [values[i] for i in positions],
            [timestamps[i] for i in positions],
            [headers[i] for i in positions],
            [stream_times[i] for i in positions],
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __repr__(self) -> str:
        return f"ColumnChunk({len(self.keys)} records)"


class Change(NamedTuple):
    """A table update: the new result plus the one it replaces.

    ``old`` is ``None`` for the first result of a key; a deletion carries
    ``new=None``. Downstream revision-aware processors retract ``old``
    and accumulate ``new``.

    A NamedTuple rather than a frozen dataclass: aggregates construct one
    per emitted update, which makes construction cost visible on the batch
    hot path.
    """

    new: Any
    old: Any = None

    def __repr__(self) -> str:
        return f"Change(new={self.new!r}, old={self.old!r})"

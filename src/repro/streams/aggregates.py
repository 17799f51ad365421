"""Aggregation processors with revision-based speculative emission.

These implement Section 5's core mechanism: aggregates emit a result the
moment it changes (no watermark blocking). Each emission is a
:class:`~repro.streams.records.Change` carrying the new and the prior
value, so downstream table consumers can retract before accumulating. An
out-of-order record within the grace period re-opens the affected window
and emits a *revision*; a record older than the grace bound is dropped and
counted.

The window-expiry rule follows Figure 6 exactly: when stream time reaches
23 with a 10 s grace, window [10, 15) is collected (its start, 10, is older
than stream-time − grace = 13) while [15, 20) survives.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Any, Callable, Optional

from repro.streams.processor import Processor
from repro.streams.records import Change, ColumnChunk, StreamRecord
from repro.streams.windows import TimeWindows, Window, Windowed

Initializer = Callable[[], Any]
Aggregator = Callable[[Any, Any, Any], Any]      # (key, value, aggregate) -> new

# Change((new, old)) built in C, without the named tuple's Python __new__.
_CHANGE = partial(tuple.__new__, Change)
# A key the chunk has not aggregated yet (``None`` is a value an aggregate
# may hold, so it cannot mark one).
_ABSENT = object()


class StreamAggregateProcessor(Processor):
    """Non-windowed aggregation of a grouped stream into a table."""

    def __init__(
        self,
        store_name: str,
        initializer: Initializer,
        aggregator: Aggregator,
    ) -> None:
        self._store_name = store_name
        self._initializer = initializer
        self._aggregator = aggregator
        self.records_processed = 0

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        self.records_processed += 1
        key = record.key
        if key is None:
            return
        old = self._store.get(key)
        base = old if old is not None else self._initializer()
        new = self._aggregator(key, record.value, base)
        self._store.put(key, new)
        self.context.forward(
            StreamRecord(
                key=key,
                value=Change(new, old),
                timestamp=record.timestamp,
                headers=record.headers,
            )
        )

    def process_batch(self, chunk: ColumnChunk) -> None:
        """Grouped column scan: one store get per distinct key on first
        touch, the running aggregate kept in a dict, one store put per key
        at chunk end. The emitted Change sequence is exactly what the
        scalar path would forward record by record; the key, timestamp
        and header columns (and the stream times) travel on by reference
        when no key is null, and as the keyed positions otherwise."""
        keys = chunk.keys
        self.records_processed += len(keys)
        store_get = self._store.get
        initializer = self._initializer
        aggregator = self._aggregator
        pending: dict = {}
        pending_get = pending.get
        news: list = []
        olds: list = []
        append_new = news.append
        append_old = olds.append
        for key, value in zip(keys, chunk.values):
            if key is None:
                continue
            old = pending_get(key, _ABSENT)
            if old is _ABSENT:
                old = store_get(key)
            new = pending[key] = aggregator(
                key, value, old if old is not None else initializer()
            )
            append_new(new)
            append_old(old)
        if pending:
            self._store.put_many(list(pending.items()))
        if not news:
            return
        changes = list(map(_CHANGE, zip(news, olds)))
        if len(news) != len(keys):
            # Null-key records were not forwarded but did advance stream time.
            chunk = chunk.take(
                [i for i, key in enumerate(keys) if key is not None],
                self.context.stream_time,
            )
        self.context.forward_chunk(chunk.with_values(changes))


class WindowedAggregateProcessor(Processor):
    """Windowed aggregation with per-operator grace period.

    * In-order record: update the window(s), emit Change immediately.
    * Out-of-order record within grace: revise the window, emit a revision
      Change (new count, old count) to the same key — downstream tables
      amend (Figure 6.c).
    * Record whose window expired (window.start < stream_time − grace):
      dropped, counted in ``dropped_records`` (Figure 6.d).
    """

    def __init__(
        self,
        store_name: str,
        windows: TimeWindows,
        initializer: Initializer,
        aggregator: Aggregator,
    ) -> None:
        self._store_name = store_name
        self._windows = windows
        self._initializer = initializer
        self._aggregator = aggregator
        self.records_processed = 0
        self.dropped_records = 0
        self.revisions_emitted = 0
        # (key, window start) -> the Windowed output key of a live window,
        # so the chunk path builds it once per window rather than per record,
        # and window start -> its Window, which every key's window shares.
        self._windowed_keys: dict = {}
        self._windows_at: dict = {}

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process_batch(self, chunk: ColumnChunk) -> None:
        """Grouped column scan over windowed updates.

        Each record is judged against the stream time the scalar path
        would show it (``chunk.stream_times_from``: the task only publishes
        the chunk's max afterwards), so the per-record expiry bound — and
        therefore which late records are dropped — is identical. That
        stream time travels on with every output, for operators downstream
        that close windows on it. Store writes consolidate to one entry per
        (key, window) in a single ``put_many`` at chunk end; the trailing
        ``expire_before`` with the final bound removes the same windows the
        scalar path's monotonically increasing per-record calls would have.
        When every record gives one output (no null key, no late record, a
        tumbling window), the timestamp, header and stream-time columns
        travel on by reference.
        """
        keys = chunk.keys
        self.records_processed += len(keys)
        windows = self._windows
        grace = windows.grace_ms
        size = windows.size_ms
        tumbling = windows.advance_ms == size
        windows_for = windows.windows_for
        fetch = self._store.fetch
        initializer = self._initializer
        aggregator = self._aggregator
        windowed_keys = self._windowed_keys
        windowed_get = windowed_keys.get
        windows_at = self._windows_at
        stream_times = chunk.stream_times_from(self.context.stream_time)
        pending: dict = {}
        pending_get = pending.get
        # One entry per output: its Windowed key, new and old value, and
        # the chunk position of the record it came from.
        out_k: list = []
        news: list = []
        olds: list = []
        positions: list = []
        append_k = out_k.append
        append_new = news.append
        append_old = olds.append
        append_position = positions.append
        dropped = revised = 0
        # The scalar path garbage-collects while processing keyed records
        # only; mirror that so store contents match exactly even when a
        # chunk ends in key-less records.
        gc_bound: Optional[float] = None
        for i, key, value, timestamp, stream_time in zip(
            count(), keys, chunk.values, chunk.timestamps, stream_times
        ):
            if key is None:
                continue
            expiry_bound = gc_bound = stream_time - grace
            if tumbling:
                start = (timestamp // size) * size
                if start >= 0 and start + size > timestamp >= (start - size) + size:
                    # Exactly when windows_for returns this one window.
                    if start < expiry_bound:
                        dropped += 1
                        continue
                    cache_key = (key, start)
                    old = pending_get(cache_key, _ABSENT)
                    if old is _ABSENT:
                        old = fetch(key, start)
                    if old is None:
                        new = aggregator(key, value, initializer())
                    else:
                        revised += 1
                        new = aggregator(key, value, old)
                    pending[cache_key] = new
                    windowed = windowed_get(cache_key)
                    if windowed is None:
                        window = windows_at.get(start)
                        if window is None:
                            window = windows_at[start] = Window(start, start + size)
                        windowed = windowed_keys[cache_key] = Windowed(key, window)
                    append_k(windowed)
                    append_new(new)
                    append_old(old)
                    append_position(i)
                    continue
            for window in windows_for(timestamp):
                start = window.start
                if start < expiry_bound:
                    dropped += 1
                    continue
                cache_key = (key, start)
                old = pending_get(cache_key, _ABSENT)
                if old is _ABSENT:
                    old = fetch(key, start)
                if old is None:
                    new = aggregator(key, value, initializer())
                else:
                    revised += 1
                    new = aggregator(key, value, old)
                pending[cache_key] = new
                windowed = windowed_get(cache_key)
                if windowed is None:
                    windowed = windowed_keys[cache_key] = Windowed(key, window)
                append_k(windowed)
                append_new(new)
                append_old(old)
                append_position(i)
        self.dropped_records += dropped
        self.revisions_emitted += revised
        store = self._store
        store.put_many(list(pending.items()))
        if gc_bound is not None and store.expire_before(gc_bound):
            self._windowed_keys = {
                cache_key: windowed
                for cache_key, windowed in windowed_keys.items()
                if cache_key[1] >= gc_bound
            }
            self._windows_at = {
                start: window for start, window in windows_at.items()
                if start >= gc_bound
            }
        if not out_k:
            return
        timestamps, headers = chunk.timestamps, chunk.headers
        if positions != list(range(len(keys))):
            timestamps = list(map(timestamps.__getitem__, positions))
            headers = list(map(headers.__getitem__, positions))
            stream_times = list(map(stream_times.__getitem__, positions))
        self.context.forward_chunk(ColumnChunk(
            out_k, list(map(_CHANGE, zip(news, olds))), timestamps, headers,
            stream_times,
        ))

    def process(self, record: StreamRecord) -> None:
        self.records_processed += 1
        if record.key is None:
            return
        stream_time = self.context.stream_time
        expiry_bound = stream_time - self._windows.grace_ms
        for window in self._windows.windows_for(record.timestamp):
            if window.start < expiry_bound:
                self.dropped_records += 1
                continue
            self._update_window(record, window)
        # Garbage-collect expired windows (Figure 6.d).
        self._store.expire_before(expiry_bound)

    def _update_window(self, record: StreamRecord, window: Window) -> None:
        key = record.key
        old = self._store.fetch(key, window.start)
        base = old if old is not None else self._initializer()
        new = self._aggregator(key, record.value, base)
        if old is not None:
            # Every update after a window's first emission revises a
            # previously emitted result.
            self.revisions_emitted += 1
        self._store.put(key, window.start, new)
        self.context.forward(
            StreamRecord(
                key=Windowed(key, window),
                value=Change(new, old),
                timestamp=record.timestamp,
                headers=record.headers,
            )
        )


def count_initializer() -> int:
    return 0


def count_aggregator(key: Any, value: Any, aggregate: int) -> int:
    return aggregate + 1


def reduce_adapter(reducer: Callable[[Any, Any], Any]) -> Aggregator:
    """Adapt a (aggregate, value) -> aggregate reducer to an Aggregator;
    the first value for a key becomes the initial aggregate."""

    def aggregate(key: Any, value: Any, agg: Any) -> Any:
        if agg is _REDUCE_SENTINEL:
            return value
        return reducer(agg, value)

    return aggregate


_REDUCE_SENTINEL = object()


def reduce_initializer() -> Any:
    return _REDUCE_SENTINEL

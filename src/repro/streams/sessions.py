"""Session-window aggregation with merge retractions.

A session aggregate is stored per (key, session first-timestamp); the
value holds the session's last timestamp and its aggregate. When a record
bridges sessions, the bridged sessions are removed from the store, their
previously emitted results are retracted downstream (Change(None, old)),
and one merged session result is emitted — the purest form of the paper's
revision processing, since downstream tables must undo two results and
apply one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.streams.processor import Processor
from repro.streams.records import Change, StreamRecord
from repro.streams.windows import SessionWindows, Windowed, session_window

Initializer = Callable[[], Any]
Aggregator = Callable[[Any, Any, Any], Any]   # (key, value, aggregate)
Merger = Callable[[Any, Any, Any], Any]       # (key, agg_a, agg_b)


class SessionAggregateProcessor(Processor):
    """Aggregates a grouped stream into per-session results."""

    def __init__(
        self,
        store_name: str,
        windows: SessionWindows,
        initializer: Initializer,
        aggregator: Aggregator,
        merger: Merger,
    ) -> None:
        self._store_name = store_name
        self._windows = windows
        self._initializer = initializer
        self._aggregator = aggregator
        self._merger = merger
        self.records_processed = 0
        self.dropped_records = 0
        self.sessions_merged = 0

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        self.records_processed += 1
        key = record.key
        if key is None:
            return
        ts = record.timestamp
        stream_time = self.context.stream_time
        expiry_bound = stream_time - self._windows.grace_ms
        if ts < expiry_bound:
            self.dropped_records += 1
            self._expire(expiry_bound)
            return

        # Sessions of this key that the record extends or bridges:
        # [start - gap, end + gap] must contain ts.
        gap = self._windows.gap_ms
        touching: List[Tuple[float, Tuple[float, Any]]] = []
        for start, (end, agg) in self._store.fetch_key_windows(key):
            if start - gap <= ts <= end + gap:
                touching.append((start, (end, agg)))

        merged_start, merged_end = ts, ts
        aggregate = self._initializer()
        for start, (end, old_agg) in touching:
            merged_start = min(merged_start, start)
            merged_end = max(merged_end, end)
            aggregate = self._merger(key, aggregate, old_agg)
            # Remove the old session and retract its emitted result.
            self._store.put(key, start, None)
            self.context.forward(
                StreamRecord(
                    key=Windowed(key, session_window(start, end)),
                    value=Change(None, old_agg),
                    timestamp=ts,
                    headers=record.headers,
                )
            )
        if len(touching) > 1:
            self.sessions_merged += len(touching) - 1

        aggregate = self._aggregator(key, record.value, aggregate)
        self._store.put(key, merged_start, (merged_end, aggregate))
        # Every touched session was retracted above, so the (possibly
        # merged) session is accumulated fresh: retract-old + add-new is
        # arithmetically the revision the downstream needs.
        self.context.forward(
            StreamRecord(
                key=Windowed(key, session_window(merged_start, merged_end)),
                value=Change(aggregate, None),
                timestamp=ts,
                headers=record.headers,
            )
        )
        self._expire(expiry_bound)

    def _expire(self, bound: float) -> None:
        """GC sessions whose span ended before the grace bound."""
        doomed = [
            (k, start)
            for (k, start), (end, _) in self._store.all()
            if end < bound
        ]
        for k, start in doomed:
            self._store.restore_put((k, start), None)


def session_count_merger(key: Any, a: int, b: int) -> int:
    return a + b

"""Window state stores.

Entries are keyed by (record key, window start) and garbage-collected once
the window falls out of the retention period (window size + grace): in
Figure 6.d the window [10, 15) is collected when stream time passes its
grace bound, after which late records for it are dropped.

Like the key-value stores, window stores track a changelog **position**
watermark so interactive-query reads carry an explicit staleness bound.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

UpdateHook = Callable[[Any, Any], None]   # key=(record_key, window_start)
BulkUpdateHook = Callable[[List[Tuple[Tuple[Any, float], Any]]], None]


class WindowStore:
    """Interface for window stores."""

    name: str
    _position: int = 0

    def fetch(self, key: Any, window_start: float) -> Any:
        raise NotImplementedError

    def put(self, key: Any, window_start: float, value: Any) -> None:
        raise NotImplementedError

    def put_many(self, items: List[Tuple[Tuple[Any, float], Any]]) -> None:
        """Apply many ``((key, window_start), value)`` puts at once; the
        default is one :meth:`put` each."""
        for (key, window_start), value in items:
            self.put(key, window_start, value)

    def flush(self) -> None:
        """Flush any buffered writes."""

    # -- changelog position (staleness watermark) ------------------------------

    def position(self) -> int:
        """Changelog offset watermark: contents reflect the changelog up
        to (but not including) this offset."""
        return self._position

    def advance_position(self, n: int = 1) -> None:
        self._position += n

    def rebase_position(self, next_offset: int) -> None:
        """Set the watermark after a changelog replay."""
        self._position = next_offset


class InMemoryWindowStore(WindowStore):
    """Dict-backed window store with retention-based garbage collection."""

    def __init__(
        self,
        name: str,
        retention_ms: float,
        on_update: Optional[UpdateHook] = None,
    ) -> None:
        if retention_ms < 0:
            raise ValueError("retention must be >= 0")
        self.name = name
        self.retention_ms = retention_ms
        self._data: Dict[Tuple[Any, float], Any] = {}
        self._on_update = on_update
        self._on_update_many: Optional[BulkUpdateHook] = None
        self._position = 0
        self.expired_entries = 0
        # Lower bound on every live entry's window start (exact until an
        # entry is deleted): lets expire_before answer without a scan.
        self._min_start = float("inf")

    def set_update_hook(self, on_update: Optional[UpdateHook]) -> None:
        self._on_update = on_update

    def set_bulk_update_hook(
        self, on_update_many: Optional[BulkUpdateHook]
    ) -> None:
        self._on_update_many = on_update_many

    def fetch(self, key: Any, window_start: float) -> Any:
        return self._data.get((key, window_start))

    def _apply_put(self, composite: Tuple[Any, float], value: Any) -> None:
        if value is None:
            self._data.pop(composite, None)
        else:
            self._data[composite] = value
            if composite[1] < self._min_start:
                self._min_start = composite[1]

    def put(self, key: Any, window_start: float, value: Any) -> None:
        composite = (key, window_start)
        self._apply_put(composite, value)
        self._position += 1
        if self._on_update is not None:
            self._on_update(composite, value)

    def put_many(self, items: List[Tuple[Tuple[Any, float], Any]]) -> None:
        """Apply many ``((key, window_start), value)`` puts at once: the
        same store contents and position as one :meth:`put` each, but a single bulk-hook call, so the changelog
        gets one column slab instead of one send per entry."""
        if not items:
            return
        apply_put = self._apply_put
        for composite, value in items:
            apply_put(composite, value)
        self._position += len(items)
        if self._on_update_many is not None:
            self._on_update_many(items)
        elif self._on_update is not None:
            for composite, value in items:
                self._on_update(composite, value)

    def restore_put(self, composite_key: Tuple[Any, float], value: Any) -> None:
        """Apply a changelog record during restoration."""
        self._apply_put(composite_key, value)

    def fetch_key_windows(self, key: Any) -> List[Tuple[float, Any]]:
        """All (window_start, value) entries for ``key``, oldest first."""
        return sorted(
            (start, value)
            for (k, start), value in self._data.items()
            if k == key
        )

    def fetch_range(
        self, key: Any, from_start: float, to_start: float
    ) -> List[Tuple[float, Any]]:
        """(window_start, value) entries with from_start <= start <= to_start."""
        return sorted(
            (start, value)
            for (k, start), value in self._data.items()
            if k == key and from_start <= start <= to_start
        )

    def all(self) -> Iterator[Tuple[Tuple[Any, float], Any]]:
        return iter(sorted(self._data.items(), key=lambda kv: (kv[0][1], repr(kv[0][0]))))

    def approximate_num_entries(self) -> int:
        return len(self._data)

    def expire_before(self, min_window_start: float) -> int:
        """Drop windows starting before ``min_window_start`` (grace-period
        GC, Figure 6.d). Returns how many entries were collected."""
        if min_window_start <= self._min_start:
            return 0
        data = self._data
        doomed = [ck for ck in data if ck[1] < min_window_start]
        for composite in doomed:
            del data[composite]
            # GC is local bookkeeping: the changelog keeps its history;
            # restoration re-applies retention separately.
        self.expired_entries += len(doomed)
        self._min_start = min((ck[1] for ck in data), default=float("inf"))
        return len(doomed)

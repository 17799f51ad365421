"""The store write cache.

Kafka Streams places a small write-back cache in front of state stores:
repeated updates to the same key within a commit interval are consolidated,
so only the latest value per key reaches the changelog topic and the
downstream operators when the cache flushes (on commit or on eviction).
This is the "output suppression caching" Expedia enables to cut disk and
network I/O (Section 6.2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.log.record import NO_HEADERS

# emit(key, new_value, old_value, timestamp, headers)
EmitFn = Callable[[Any, Any, Any, float, Mapping[str, Any]], None]


class StoreCache:
    """A bounded LRU write-back cache in front of a store.

    ``old_value`` tracked per dirty entry is the value *before the first
    cached update*, so the flushed Change spans the whole consolidated run
    of updates — downstream retractions stay correct.
    """

    def __init__(self, max_entries: int, emit: EmitFn) -> None:
        if max_entries < 1:
            raise ValueError("cache needs max_entries >= 1")
        self.max_entries = max_entries
        self._emit = emit
        # key -> (new_value, old_value, timestamp, headers)
        self._dirty: "OrderedDict[Any, Tuple[Any, Any, float, Mapping]]" = OrderedDict()
        self.hits = 0
        self.evictions = 0
        self.flushes = 0

    def get(self, key: Any) -> Optional[Any]:
        """Cached pending value for ``key`` (None if not cached)."""
        entry = self._dirty.get(key)
        if entry is None:
            return None
        self.hits += 1
        return entry[0]

    def contains(self, key: Any) -> bool:
        return key in self._dirty

    def put(
        self,
        key: Any,
        new_value: Any,
        old_value: Any,
        timestamp: float,
        headers: Mapping[str, Any] = NO_HEADERS,
    ) -> None:
        """Buffer an update; consolidates with any pending one for the key.

        ``headers`` of the latest update travel with the flushed result
        (preserving e.g. the created_at provenance of the triggering
        record)."""
        pending = self._dirty.pop(key, None)
        if pending is not None:
            old_value = pending[1]     # keep the pre-run old value
        self._dirty[key] = (new_value, old_value, timestamp, headers)
        if len(self._dirty) > self.max_entries:
            evict_key, (val, old, ts, hdrs) = self._dirty.popitem(last=False)
            self.evictions += 1
            self._emit(evict_key, val, old, ts, hdrs)

    def flush(self) -> int:
        """Emit every pending entry (called at commit). Returns count."""
        flushed = 0
        while self._dirty:
            key, (val, old, ts, hdrs) = self._dirty.popitem(last=False)
            self._emit(key, val, old, ts, hdrs)
            flushed += 1
        self.flushes += 1
        return flushed

    def __len__(self) -> int:
        return len(self._dirty)

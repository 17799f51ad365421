"""Key-value state stores.

Writes are mirrored to the store's changelog topic through the ``on_update``
hook the owning task installs (Section 3.2: "writes to the state stores are
also replicated to Kafka as changelog topics"). The store itself is a
disposable materialized view — it can always be rebuilt by replaying the
changelog (see :mod:`repro.streams.runtime.restore`).

Every store also carries a **position**: the changelog offset watermark its
contents reflect. A changelog replay rebases the watermark to the exact
next offset of the replayed prefix; the active write path advances it by
one per mirrored write. Interactive queries attach the position to every
read so callers get an explicit staleness bound
(see :mod:`repro.iq.view`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

UpdateHook = Callable[[Any, Any], None]
BulkUpdateHook = Callable[[List[Tuple[Any, Any]]], None]


class KeyValueStore:
    """Interface for key-value stores (users may supply custom ones)."""

    name: str
    # Changelog offset watermark (class default lets minimal custom stores
    # inherit position bookkeeping without defining __init__).
    _position: int = 0

    def get(self, key: Any) -> Any:
        raise NotImplementedError

    def get_many(self, keys: List[Any]) -> List[Any]:
        """The value of each key, in order (``None`` where absent), in one
        call; the default is one :meth:`get` each. A null key may be among
        them (a key-less stream record), and its answer goes unread."""
        return list(map(self.get, keys))

    def put(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def put_many(self, items: List[Tuple[Any, Any]]) -> None:
        """Apply many puts at once.

        The default routes every item through :meth:`put` — the single
        overridable write hook — so a store that overrides only ``put``
        keeps its position/watermark updates, changelog mirroring, and any
        custom behaviour consistent between the scalar and bulk paths.
        Bulk-aware stores may override this, but must preserve those
        semantics (see :class:`InMemoryKeyValueStore`).
        """
        for key, value in items:
            self.put(key, value)

    def delete(self, key: Any) -> None:
        raise NotImplementedError

    def all(self) -> Iterator[Tuple[Any, Any]]:
        raise NotImplementedError

    def approximate_num_entries(self) -> int:
        raise NotImplementedError

    def flush(self) -> None:
        """Flush any buffered writes (no-op for unbuffered stores)."""

    # -- changelog position (staleness watermark) ------------------------------

    def position(self) -> int:
        """Changelog offset watermark: this store's contents reflect the
        changelog up to (but not including) this offset. Exact after a
        changelog replay; advanced per write on the active path."""
        return self._position

    def advance_position(self, n: int = 1) -> None:
        self._position += n

    def rebase_position(self, next_offset: int) -> None:
        """Set the watermark after a changelog replay (the restore path
        knows the exact next offset of the replayed prefix)."""
        self._position = next_offset


class InMemoryKeyValueStore(KeyValueStore):
    """Dict-backed store with a changelog hook."""

    def __init__(self, name: str, on_update: Optional[UpdateHook] = None) -> None:
        self.name = name
        self._data: Dict[Any, Any] = {}
        self._on_update = on_update
        self._on_update_many: Optional[BulkUpdateHook] = None
        self._position = 0
        self.puts = 0

    def set_update_hook(self, on_update: Optional[UpdateHook]) -> None:
        self._on_update = on_update

    def set_bulk_update_hook(
        self, on_update_many: Optional[BulkUpdateHook]
    ) -> None:
        self._on_update_many = on_update_many

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def get_many(self, keys: List[Any]) -> List[Any]:
        # Reads the dict directly: a subclass that overrides ``get`` must
        # override this too.
        return list(map(self._data.get, keys))

    def put(self, key: Any, value: Any) -> None:
        self.puts += 1
        self._data[key] = value
        self._position += 1
        if self._on_update is not None:
            self._on_update(key, value)

    def put_many(self, items: List[Tuple[Any, Any]]) -> None:
        if not items:
            return
        self.puts += len(items)
        self._data.update(items)
        self._position += len(items)
        if self._on_update_many is not None:
            self._on_update_many(items)
        elif self._on_update is not None:
            for key, value in items:
                self._on_update(key, value)

    def delete(self, key: Any) -> None:
        self.puts += 1
        self._data.pop(key, None)
        self._position += 1
        if self._on_update is not None:
            self._on_update(key, None)   # tombstone

    def restore_put(self, key: Any, value: Any) -> None:
        """Apply a changelog record during restoration (no hook — the
        update is already in the changelog; the restore rebases the
        position to the replayed prefix's next offset afterwards)."""
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def all(self) -> Iterator[Tuple[Any, Any]]:
        return iter(sorted(self._data.items(), key=lambda kv: repr(kv[0])))

    def approximate_num_entries(self) -> int:
        return len(self._data)

"""QueryableStoreView: the read-only facade every interactive query uses.

The state layer's contract with the query layers above it (Section 6.1's
queryable-state idea): a view exposes point reads, range scans, and window
scans over one store, plus the store's changelog ``position()`` watermark —
so every read carries an explicit staleness bound instead of an implicit
"whatever the store happened to contain". Mutations are rejected: queries
never write through this facade, which is what lets standby replicas and
committed shadows serve the same API as active stores.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import StateStoreError


class QueryableStoreView:
    """Read-only view over a key-value or window store."""

    def __init__(self, store: Any) -> None:
        self._store = store

    @property
    def name(self) -> str:
        return self._store.name

    def position(self) -> int:
        """Changelog offset watermark of the underlying store: every read
        from this view reflects the changelog up to (not including) it."""
        return self._store.position()

    # -- key-value reads -------------------------------------------------------

    def get(self, key: Any) -> Any:
        return self._require("get")(key)

    def range(
        self, from_key: Optional[Any] = None, to_key: Optional[Any] = None
    ) -> List[Tuple[Any, Any]]:
        """Entries with from_key <= key <= to_key (None = unbounded), in
        the store's scan order. Keys must be mutually comparable when a
        bound is given."""
        entries = self._require("all")()
        if from_key is None and to_key is None:
            return list(entries)
        return [
            (key, value)
            for key, value in entries
            if (from_key is None or key >= from_key)
            and (to_key is None or key <= to_key)
        ]

    def all(self) -> Iterator[Tuple[Any, Any]]:
        return self._require("all")()

    # -- window reads ----------------------------------------------------------

    def fetch_key_windows(self, key: Any) -> List[Tuple[float, Any]]:
        return self._require("fetch_key_windows")(key)

    def fetch_range(
        self, key: Any, from_start: float, to_start: float
    ) -> List[Tuple[float, Any]]:
        return self._require("fetch_range")(key, from_start, to_start)

    # -- mutations are rejected ------------------------------------------------

    def put(self, *args: Any, **kwargs: Any) -> None:
        raise StateStoreError(
            f"store {self.name!r}: QueryableStoreView is read-only"
        )

    put_many = put
    delete = put
    restore_put = put

    def _require(self, op: str):
        method = getattr(self._store, op, None)
        if method is None:
            raise StateStoreError(
                f"store {self.name!r} does not support {op!r} queries"
            )
        return method

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryableStoreView({self.name!r}, "
            f"position={self._store.position()})"
        )

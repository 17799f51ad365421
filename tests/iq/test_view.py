"""QueryableStoreView (the read-only facade) and the state-layer contracts
it depends on: position watermarks and the single-write-hook ``put_many``."""

import pytest

from repro.errors import StateStoreError
from repro.iq import QueryableStoreView
from repro.streams.state.kv_store import InMemoryKeyValueStore, KeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore


def kv(entries=()):
    store = InMemoryKeyValueStore("kv")
    for key, value in entries:
        store.put(key, value)
    return store


class TestViewReads:
    def test_point_reads(self):
        view = QueryableStoreView(kv([("a", 1), ("b", 2)]))
        assert view.get("a") == 1
        assert view.get("missing") is None
        assert view.approximate_num_entries() == 2

    def test_range_scans(self):
        view = QueryableStoreView(kv([("a", 1), ("b", 2), ("c", 3)]))
        assert view.range() == [("a", 1), ("b", 2), ("c", 3)]
        assert view.range("a", "b") == [("a", 1), ("b", 2)]
        assert view.range(from_key="b") == [("b", 2), ("c", 3)]
        assert view.range(to_key="a") == [("a", 1)]
        assert list(view.all()) == [("a", 1), ("b", 2), ("c", 3)]

    def test_window_scans(self):
        store = InMemoryWindowStore("w", retention_ms=10_000.0)
        store.put("k", 0.0, 1)
        store.put("k", 100.0, 2)
        store.put("j", 100.0, 7)
        view = QueryableStoreView(store)
        assert view.fetch("k", 100.0) == 2
        assert view.fetch_key_windows("k") == [(0.0, 1), (100.0, 2)]
        assert view.fetch_range("k", 50.0, 150.0) == [(100.0, 2)]

    def test_position_is_the_store_watermark(self):
        store = kv([("a", 1)])
        view = QueryableStoreView(store)
        assert view.position() == 1
        store.put("b", 2)
        assert view.position() == 2
        store.rebase_position(17)   # what a changelog replay does
        assert view.position() == 17

    def test_mutations_rejected(self):
        view = QueryableStoreView(kv([("a", 1)]))
        with pytest.raises(StateStoreError):
            view.put("x", 9)
        with pytest.raises(StateStoreError):
            view.put_many([("x", 9)])
        with pytest.raises(StateStoreError):
            view.delete("a")
        with pytest.raises(StateStoreError):
            view.restore_put("x", 9)
        assert view.get("a") == 1
        assert view.get("x") is None

    def test_unsupported_query_type_reported(self):
        # Window scans against a key-value store (and vice versa) are a
        # store-capability error, not an AttributeError.
        with pytest.raises(StateStoreError):
            QueryableStoreView(kv()).fetch_key_windows("k")
        window_view = QueryableStoreView(
            InMemoryWindowStore("w", retention_ms=1.0)
        )
        with pytest.raises(StateStoreError):
            window_view.get("k")


class CountingStore(KeyValueStore):
    """Minimal custom store overriding only ``put`` — the single write hook
    the base class must route ``put_many`` through."""

    def __init__(self):
        self.name = "custom"
        self.data = {}
        self.put_calls = 0

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.put_calls += 1
        self.data[key] = value
        self.advance_position()

    def all(self):
        return iter(sorted(self.data.items()))

    def approximate_num_entries(self):
        return len(self.data)


class TestPutMany:
    def test_base_class_routes_put_many_through_put(self):
        store = CountingStore()
        store.put_many([("a", 1), ("b", 2), ("a", 3)])
        assert store.put_calls == 3
        assert store.data == {"a": 3, "b": 2}
        # Position bookkeeping rode along with the scalar hook.
        assert store.position() == 3

    def test_bulk_fast_path_matches_scalar_path(self):
        bulk_updates, scalar_updates = [], []
        bulk = InMemoryKeyValueStore(
            "kv", on_update=lambda k, v: bulk_updates.append((k, v))
        )
        scalar = InMemoryKeyValueStore(
            "kv", on_update=lambda k, v: scalar_updates.append((k, v))
        )
        items = [("a", 1), ("b", 2), ("a", 3)]
        bulk.put_many(items)
        for key, value in items:
            scalar.put(key, value)
        assert dict(bulk.all()) == dict(scalar.all()) == {"a": 3, "b": 2}
        assert bulk.position() == scalar.position() == 3
        assert bulk.puts == scalar.puts == 3
        # Changelog mirroring is per-item on both paths.
        assert bulk_updates == scalar_updates == items

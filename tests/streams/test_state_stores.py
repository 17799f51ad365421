"""State stores: KV and window (with GC)."""

import pytest

from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore


class TestKeyValueStore:
    def test_put_get_delete(self):
        store = InMemoryKeyValueStore("s")
        store.put("a", 1)
        assert store.get("a") == 1
        store.delete("a")
        assert store.get("a") is None

    def test_missing_key_is_none(self):
        assert InMemoryKeyValueStore("s").get("nope") is None

    def test_update_hook_fires_on_put_and_delete(self):
        events = []
        store = InMemoryKeyValueStore("s", on_update=lambda k, v: events.append((k, v)))
        store.put("a", 1)
        store.delete("a")
        assert events == [("a", 1), ("a", None)]   # delete is a tombstone

    def test_restore_put_bypasses_hook(self):
        events = []
        store = InMemoryKeyValueStore("s", on_update=lambda k, v: events.append(1))
        store.restore_put("a", 1)
        store.restore_put("a", None)
        assert events == []
        assert store.get("a") is None

    def test_all_is_deterministic(self):
        store = InMemoryKeyValueStore("s")
        for key in ("b", "a", "c"):
            store.put(key, key)
        assert [k for k, _ in store.all()] == ["a", "b", "c"]

    def test_approximate_num_entries(self):
        store = InMemoryKeyValueStore("s")
        store.put("a", 1)
        store.put("b", 2)
        assert store.approximate_num_entries() == 2


class TestWindowStore:
    def test_put_fetch(self):
        store = InMemoryWindowStore("w", retention_ms=100)
        store.put("k", 0.0, 5)
        assert store.fetch("k", 0.0) == 5
        assert store.fetch("k", 10.0) is None

    def test_fetch_key_windows_sorted(self):
        store = InMemoryWindowStore("w", retention_ms=100)
        store.put("k", 10.0, "b")
        store.put("k", 0.0, "a")
        assert store.fetch_key_windows("k") == [(0.0, "a"), (10.0, "b")]

    def test_fetch_range_inclusive(self):
        store = InMemoryWindowStore("w", retention_ms=100)
        for start in (0.0, 5.0, 10.0, 15.0):
            store.put("k", start, start)
        assert store.fetch_range("k", 5.0, 10.0) == [(5.0, 5.0), (10.0, 10.0)]

    def test_expire_before_collects_old_windows(self):
        store = InMemoryWindowStore("w", retention_ms=100)
        store.put("k", 0.0, "old")
        store.put("k", 50.0, "new")
        collected = store.expire_before(25.0)
        assert collected == 1
        assert store.fetch("k", 0.0) is None
        assert store.fetch("k", 50.0) == "new"
        assert store.expired_entries == 1

    def test_expire_before_without_a_scan_keeps_the_accounting(self):
        """The minimum live window start answers most calls; it must stay
        right across puts, restores, deletes and collections."""
        store = InMemoryWindowStore("w", retention_ms=100)
        assert store.expire_before(1e9) == 0          # empty store
        store.put("k", 50.0, "b")
        store.restore_put(("k", 20.0), "a")            # lowers the minimum
        assert store.expire_before(20.0) == 0          # bound not above it
        assert store.expire_before(20.5) == 1
        store.put("j", 30.0, "c")                      # below the survivor
        store.put("j", 30.0, None)                     # delete: bound stays low
        assert store.expire_before(40.0) == 0          # nothing live below 40
        assert store.expire_before(60.0) == 1
        assert store.expired_entries == 2
        assert store.approximate_num_entries() == 0
        store.put("k", 10.0, "d")                      # older than anything seen
        assert store.expire_before(11.0) == 1

    def test_put_many_equals_puts_with_one_bulk_hook_call(self):
        items = [(("k", 0.0), 1), (("k", 5.0), 2), (("k", 0.0), None)]
        single = []
        one = InMemoryWindowStore("w", retention_ms=100)
        one.set_update_hook(lambda k, v: single.append((k, v)))
        for (key, start), value in items:
            one.put(key, start, value)

        slabs = []
        many = InMemoryWindowStore("w", retention_ms=100)
        many.set_update_hook(lambda k, v: pytest.fail("scalar hook used"))
        many.set_bulk_update_hook(slabs.append)
        many.put_many(items)
        many.put_many([])

        assert slabs == [items] and single == items
        assert dict(many.all()) == dict(one.all()) == {("k", 5.0): 2}
        assert many.position() == one.position() == 3
        assert many.expire_before(5.0) == 0            # (k, 0.0) was deleted

        fallback = InMemoryWindowStore("w", retention_ms=100)
        fallback.set_update_hook(lambda k, v: single.append((k, v)))
        fallback.put_many(items[:1])                   # no bulk hook: per item
        assert single[-1] == items[0]

    def test_update_hook_uses_composite_key(self):
        events = []
        store = InMemoryWindowStore(
            "w", retention_ms=100, on_update=lambda k, v: events.append((k, v))
        )
        store.put("k", 5.0, 42)
        assert events == [(("k", 5.0), 42)]

    def test_restore_put(self):
        store = InMemoryWindowStore("w", retention_ms=100)
        store.restore_put(("k", 5.0), 42)
        assert store.fetch("k", 5.0) == 42
        store.restore_put(("k", 5.0), None)
        assert store.fetch("k", 5.0) is None

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            InMemoryWindowStore("w", retention_ms=-1)


"""State stores: disposable materialized views of changelog topics."""

from repro.errors import TopologyError
from repro.streams.state.kv_store import InMemoryKeyValueStore, KeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore, WindowStore


def create_store(spec):
    """An empty store of the kind a topology's ``StateStoreSpec`` declares:
    a task's own, a standby's shadow or an IQ server's committed view."""
    if spec.kind == "kv":
        return InMemoryKeyValueStore(spec.name)
    if spec.kind == "window":
        return InMemoryWindowStore(spec.name, retention_ms=spec.retention_ms)
    raise TopologyError(f"unknown store kind: {spec.kind}")


__all__ = [
    "create_store",
    "KeyValueStore",
    "InMemoryKeyValueStore",
    "WindowStore",
    "InMemoryWindowStore",
]

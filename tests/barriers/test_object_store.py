"""The simulated object store: latency model and contents."""

import pytest

from repro.barriers.object_store import ObjectStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


def test_put_get_roundtrip():
    store = ObjectStore(SimClock(), CostModel(), charge_latency=False)
    store.put("a/b", {"x": 1})
    assert store.get("a/b") == {"x": 1}


def test_missing_path_raises():
    store = ObjectStore(SimClock(), CostModel(), charge_latency=False)
    with pytest.raises(KeyError):
        store.get("nope")


def test_put_charges_fixed_latency():
    clock = SimClock()
    store = ObjectStore(clock, CostModel(object_put_ms=25.0, object_per_kb_ms=0.0))
    store.put("p", None)
    assert clock.now == pytest.approx(25.0)


def test_size_adds_latency():
    clock = SimClock()
    store = ObjectStore(clock, CostModel(object_put_ms=0.0, object_per_kb_ms=1.0))
    store.put("p", None, size_kb=10.0)
    assert clock.now == pytest.approx(10.0)


def test_metrics_accumulate():
    clock = SimClock()
    store = ObjectStore(clock, CostModel(object_put_ms=5.0, object_per_kb_ms=0.0))
    store.put("a", 1)
    store.put("b", 2)
    assert store.puts == 2
    assert clock.now == pytest.approx(10.0)

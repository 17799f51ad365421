"""Network fault rules and the FailureInjector shapes: targeting,
sustained faults, healing."""

import pytest

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import ProducerConfig
from repro.errors import RequestTimeoutError
from repro.sim.failures import FailureInjector
from repro.sim.network import FaultRule


@pytest.fixture
def cluster():
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    cluster.create_topic("t", 2)
    return cluster


def test_drop_next_produce_request_filters_by_broker(cluster):
    rule = cluster.network.add_fault(
        FaultRule(kind="drop_request", match_api="produce", match_dst=1)
    )
    applied = []
    cluster.network.call("produce", 0, lambda: applied.append(0))
    with pytest.raises(RequestTimeoutError):
        cluster.network.call("produce", 1, lambda: applied.append(1))
    assert applied == [0]
    assert rule.triggered == 1


def test_drop_next_produce_request_unfiltered_hits_any_broker(cluster):
    cluster.network.add_fault(FaultRule(kind="drop_request", match_api="produce"))
    with pytest.raises(RequestTimeoutError):
        cluster.network.call("produce", 2, lambda: None)


def test_slow_broker_arms_duration_rule(cluster):
    cluster.network.charge_latency = True
    injector = FailureInjector(cluster)
    injector.slow_broker(0, delay_ms=20.0, duration_ms=100.0)
    cluster.costs.jitter_frac = 0.0
    cluster.network.call("fetch", 0, lambda: None, base_cost_ms=1.0)
    assert cluster.clock.now == pytest.approx(21.0)
    cluster.network.call("fetch", 1, lambda: None, base_cost_ms=1.0)
    assert cluster.clock.now == pytest.approx(22.0)


def test_sever_link_cuts_one_client_broker_path(cluster):
    injector = FailureInjector(cluster)
    injector.sever_link("app-producer-0", broker_id=2, duration_ms=50.0)
    with pytest.raises(RequestTimeoutError):
        cluster.network.call("produce", 2, lambda: None, src="app-producer-0")
    # Other clients and other brokers unaffected.
    cluster.network.call("produce", 2, lambda: None, src="app-producer-1")
    cluster.network.call("produce", 0, lambda: None, src="app-producer-0")
    cluster.clock.advance(60.0)
    cluster.network.call("produce", 2, lambda: None, src="app-producer-0")


def test_heal_restarts_brokers_and_clears_faults(cluster):
    injector = FailureInjector(cluster)
    cluster.crash_broker(0)
    cluster.crash_broker(1)
    cluster.network.add_fault(FaultRule(kind="drop_request", match_api="produce"))
    injector.slow_broker(2, delay_ms=5.0, duration_ms=1000.0)
    assert cluster.alive_brokers() == [2]

    injector.heal()
    assert cluster.alive_brokers() == [0, 1, 2]
    assert cluster.network._rules == []
    # The healed cluster serves acks=all writes again.
    producer = Producer(cluster, ProducerConfig(enable_idempotence=False))
    producer.send("t", key="k", value="v")
    producer.flush()


def test_heal_is_idempotent_on_healthy_cluster(cluster):
    injector = FailureInjector(cluster)
    injector.heal()
    assert cluster.alive_brokers() == [0, 1, 2]

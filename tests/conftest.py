"""Shared fixtures for the repro test suite."""

import pytest

from repro.broker.cluster import Cluster
from repro.config import BrokerConfig
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def cluster():
    """A three-broker cluster with replication factor 3."""
    return Cluster(num_brokers=3, seed=7)


@pytest.fixture
def single_broker_cluster():
    config = BrokerConfig(replication_factor=1, min_insync_replicas=1)
    return Cluster(num_brokers=1, config=config, seed=7)


@pytest.fixture
def fast_cluster():
    """Cluster whose network charges no latency — for logic-only tests."""
    c = Cluster(num_brokers=3, seed=7)
    c.network.charge_latency = False
    return c

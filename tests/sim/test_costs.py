"""The one cost model: ``cluster.costs`` is the price list every charge
reads, so one field changed in place moves every charge built on it."""

import pytest

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import BrokerConfig, ProducerConfig
from repro.sim.costs import CostModel
from repro.streams.runtime.restore import restore_store

from tests.iq.harness import STORE, make_iq_app, produce_counts

RAISE_MS = 1.5      # added to ``rpc_base_ms`` between two identical rounds


class _Discard:
    name = "discard"

    def restore_put(self, key, value):
        pass


def _one_round(cluster, producer, consumer):
    """A transaction over three partitions, one poll and one restore round;
    returns what each was charged: every RPC's cost by api, the scheduled
    marker (and completion) delays, and the restore's clock advance."""
    charges = {}
    call = cluster.network.call

    def recording(api, dst, fn, base_cost_ms=None, src=None):
        charges.setdefault(api, []).append(base_cost_ms)
        return call(api, dst, fn, base_cost_ms=base_cost_ms, src=src)

    delays = []
    schedule = cluster.clock.schedule

    def scheduling(delay_ms, callback, wake=True):
        delays.append(delay_ms)
        return schedule(delay_ms, callback, wake=wake)

    cluster.network.call = recording
    producer.begin_transaction()
    for partition in range(3):
        producer.send("t", key=f"k{partition}", value=1, partition=partition)
    producer.flush()
    cluster.clock.schedule = scheduling
    producer.commit_transaction()
    cluster.clock.schedule = schedule
    cluster.clock.advance(50.0)     # the markers land
    consumer.poll()
    started = cluster.clock.now
    restore_store(cluster, _Discard(), "t", 0, max_records=1)
    restored = cluster.clock.now - started
    cluster.network.call = call
    return charges, delays, restored


def test_the_cluster_builds_one_model_and_its_network_charges_from_it():
    cluster = Cluster(num_brokers=1, seed=3)
    assert cluster.network.costs is cluster.costs
    assert cluster.costs == CostModel()


def test_one_field_raised_in_place_moves_every_charge_that_reads_it():
    cluster = Cluster(
        num_brokers=1,
        config=BrokerConfig(replication_factor=1, min_insync_replicas=1),
        seed=3,
    )
    cluster.costs.jitter_frac = 0.0
    cluster.create_topic("t", 3)
    producer = Producer(
        cluster, ProducerConfig(client_id="p", transactional_id="costs")
    )
    producer.init_transactions()
    consumer = Consumer(cluster)
    consumer.assign(cluster.partitions_for("t"))
    before = _one_round(cluster, producer, consumer)
    cluster.costs.rpc_base_ms += RAISE_MS
    charges, delays, restored = _one_round(cluster, producer, consumer)

    # Produce, fetch and every coordinator RPC carry one rpc_base_ms.
    assert {"produce", "fetch", "add_partitions_to_txn", "end_txn",
            "txn_log_append"} <= set(charges)
    for api, costs in charges.items():
        assert costs == pytest.approx([c + RAISE_MS for c in before[0][api]]), api
    # One broker: its markers and the completion wait one rpc_base_ms more.
    assert len(delays) == 4
    assert delays == pytest.approx([d + RAISE_MS for d in before[1]])
    # A restore round is a fetch plus the replay.
    assert restored == pytest.approx(before[2] + RAISE_MS)

    # An IQ hop's reported latency: one rpc_base_ms plus the local serve.
    cluster, app = make_iq_app()
    produce_counts(cluster)
    app.run_until_idle(max_steps=50_000)
    router = app.query_router()
    latency = cluster.metrics.histogram("iq_query_latency_ms")
    router.get(STORE, "k-0")
    assert latency.max() == pytest.approx(CostModel().query_hop())
    cluster.costs.rpc_base_ms += RAISE_MS
    router.get(STORE, "k-0")
    assert latency.max() == pytest.approx(CostModel().query_hop() + RAISE_MS)
    app.close()

"""MirrorLink replication: content fidelity, isolation, lag, restarts."""

import pytest

from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
)
from repro.errors import RequestTimeoutError
from repro.metrics.latency import CREATED_AT_HEADER
from repro.mirror import Federation, InterClusterLink, MirrorLink
from repro.sim.failures import FailureInjector
from repro.sim.invariants import MirrorPrefixEquality, committed_records


def make_federation(**kwargs):
    fed = Federation(regions=("east", "west"), num_brokers=3, seed=7, **kwargs)
    fed.cluster("east").create_topic("orders", 2)
    return fed


def produce(cluster, lo, hi, topic="orders", keys=5):
    producer = Producer(cluster, ProducerConfig(client_id=f"gen-{lo}"))
    for i in range(lo, hi):
        producer.send(
            topic,
            key=f"k{i % keys}",
            value=i,
            timestamp=float(i),
            headers={CREATED_AT_HEADER: cluster.clock.now},
        )
    producer.flush()


class TestReplication:
    def test_mirrored_content_is_identical(self):
        fed = make_federation()
        mirror = fed.add_mirror("east", "west", ["orders"], latency_ms=25.0)
        produce(fed.cluster("east"), 0, 50)
        fed.run_until_idle()
        assert mirror.records_mirrored == 50
        assert mirror.drained()
        east = committed_records(fed.cluster("east"), ["orders"])
        west = committed_records(fed.cluster("west"), ["orders"])
        assert east == west

    def test_prefix_invariant_holds_throughout(self):
        fed = make_federation()
        mirror = fed.add_mirror("east", "west", ["orders"])
        invariant = MirrorPrefixEquality(
            fed.cluster("east"), fed.cluster("west"), ["orders"],
            require_complete_final=True,
        )
        for lo in range(0, 60, 20):
            produce(fed.cluster("east"), lo, lo + 20)
            fed.run_for(50.0)
            invariant.check(None)
        fed.run_until_idle()
        invariant.check(None, final=True)
        assert mirror.drained()

    def test_failed_target_flush_duplicates_nothing(self):
        """The target-side producer is idempotent, not transactional: when
        its flush gives up on one partition, the mirror rides it out —
        what was already delivered to the other is not sent again with the
        next batch, what was not is accounted when it lands."""
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror("east", "west", ["orders"])
        tps = [TopicPartition("orders", n) for n in (0, 1)]
        leaders = [west.leader_of(tp) for tp in tps]
        assert leaders[0] != leaders[1]
        produce(east, 0, 10)
        FailureInjector(west).drop_next_produce_request(
            count=10**6, broker_id=leaders[1]
        )
        delivered = len(east.partition_state(tps[0]).leader_log())
        assert mirror.poll() == delivered    # partition 0 landed, 1 timed out
        assert mirror.translator.mirrored_count(tps[1]) == 0
        assert not mirror.drained()
        west.network.clear_faults()
        fed.run_until_idle()           # no new input: the buffer goes out
        assert mirror.drained() and mirror.records_mirrored == 10
        produce(east, 10, 20)
        fed.run_until_idle()
        assert mirror.drained()
        for tp in tps:
            source = east.partition_state(tp).leader_log().records()
            target = west.partition_state(tp).leader_log().records()
            assert [r.value for r in target] == [r.value for r in source]
            assert [r.sequence for r in target] == list(range(len(target)))
            # Nothing but data on either side: the translation is the identity.
            assert [
                mirror.translator.to_target(tp, offset)
                for offset in range(len(source) + 1)
            ] == list(range(len(source) + 1))
        assert mirror.records_mirrored == 20

    def test_aborted_records_never_cross_the_link(self):
        """Read-committed source fetch: an aborted transaction's records
        exist in the source log but must not appear on the target."""
        fed = make_federation()
        east = fed.cluster("east")
        fed.add_mirror("east", "west", ["orders"])
        committed = Producer(
            east, ProducerConfig(client_id="txn-ok", transactional_id="ok")
        )
        committed.init_transactions()
        committed.begin_transaction()
        for i in range(10):
            committed.send("orders", key=f"c{i}", value=i)
        committed.commit_transaction()
        aborted = Producer(
            east, ProducerConfig(client_id="txn-bad", transactional_id="bad")
        )
        aborted.init_transactions()
        aborted.begin_transaction()
        for i in range(5):
            aborted.send("orders", key=f"a{i}", value=-i)
        aborted.abort_transaction()
        fed.run_until_idle()
        west_rows = committed_records(fed.cluster("west"), ["orders"])["orders"]
        keys = {key for _, key, _ in west_rows}
        assert len(west_rows) == 10
        assert all(key.startswith("c") for key in keys)

    def test_lag_grows_under_partition_and_heals(self):
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror("east", "west", ["orders"])
        produce(east, 0, 20)
        fed.run_until_idle()
        assert mirror.drained()

        link = fed.link("east", "west")
        link.partition()
        produce(east, 20, 40)
        fed.run_for(300.0)
        assert mirror.records_mirrored == 20
        assert not mirror.drained()
        assert sum(mirror.lags().values()) == 20
        lag_gauges = {
            name: value
            for name, value in west.metrics.gauges("mirror.lag{").items()
        }
        assert sum(lag_gauges.values()) == 20

        link.heal()
        fed.run_until_idle()
        assert mirror.drained()
        assert mirror.records_mirrored == 40
        east_rows = committed_records(east, ["orders"])
        west_rows = committed_records(west, ["orders"])
        assert east_rows == west_rows

    def test_linked_network_times_out_when_partitioned(self):
        fed = make_federation()
        east = fed.cluster("east")
        link = fed.connect("east", "west", latency_ms=30.0)
        network = link.network_to(east)
        link.partition()
        with pytest.raises(RequestTimeoutError, match="partitioned"):
            network.call("fetch", 0, lambda: None, base_cost_ms=1.0)
        link.heal()
        assert network.call("fetch", 0, lambda: 42, base_cost_ms=1.0) == 42

    def test_link_requires_registered_endpoint(self):
        fed = make_federation()
        other = Federation(regions=("a", "b"), seed=3)
        link = fed.connect("east", "west")
        with pytest.raises(ValueError):
            link.network_to(other.cluster("a"))


class TestGroupOffsetSync:
    def test_synced_offsets_round_trip_exactly(self):
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror(
            "east", "west", ["orders"], sync_groups=["app"]
        )
        produce(east, 0, 30)
        fed.run_until_idle()
        tp0, tp1 = TopicPartition("orders", 0), TopicPartition("orders", 1)
        east.group_coordinator.commit_offsets("app", {tp0: 3, tp1: 7})
        fed.run_for(mirror.group_sync_interval_ms * 3)
        synced = west.group_coordinator.fetch_committed("app", [tp0, tp1])
        assert synced[tp0] is not None and synced[tp1] is not None
        assert mirror.translator.to_source(tp0, synced[tp0]) == 3
        assert mirror.translator.to_source(tp1, synced[tp1]) == 7

    def test_unmirrored_positions_are_deferred_not_approximated(self):
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror(
            "east", "west", ["orders"], sync_groups=["app"]
        )
        produce(east, 0, 10)
        fed.run_until_idle()
        # Commit an offset past everything mirrored (new unmirrored data).
        link = fed.link("east", "west")
        link.partition()
        produce(east, 10, 20)
        tp0 = TopicPartition("orders", 0)
        end = east.end_offset(tp0, READ_COMMITTED)
        east.group_coordinator.commit_offsets("app", {tp0: end})
        fed.run_for(300.0)
        link.heal()
        # One sync pass while still behind: the offset must not be
        # published at an approximate translation.
        published = mirror.sync_group_offsets()
        if "app" in published:
            assert mirror.translator.to_source(
                tp0, published["app"][tp0]
            ) == end
        fed.run_until_idle()
        synced = west.group_coordinator.fetch_committed("app", [tp0])
        assert mirror.translator.to_source(tp0, synced[tp0]) == end

    def test_groups_live_on_target_are_not_overwritten(self):
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        west.create_topic("orders", 2)
        mirror = fed.add_mirror(
            "east", "west", ["orders"], sync_groups=["app"]
        )
        # A live member of "app" on the target cluster.
        consumer = Consumer(
            west, ConsumerConfig(client_id="local", group_id="app")
        )
        consumer.subscribe(["orders"])
        consumer.poll()
        tp0 = TopicPartition("orders", 0)
        east.group_coordinator.commit_offsets("app", {tp0: 1})
        produce(east, 0, 10)
        fed.run_until_idle()
        assert "app" not in mirror.sync_group_offsets()


class TestRestart:
    def test_restarted_link_resumes_without_duplicates(self):
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror(
            "east", "west", ["orders"], sync_groups=["app"]
        )
        produce(east, 0, 25)
        fed.run_until_idle()
        tp0 = TopicPartition("orders", 0)
        east.group_coordinator.commit_offsets("app", {tp0: 5})
        fed.run_for(mirror.group_sync_interval_ms * 3)
        synced_before = west.group_coordinator.fetch_committed("app", [tp0])[tp0]
        old_translation = mirror.translator.to_target(tp0, 5)

        # Kill the mirror actor and build a fresh one over the same link:
        # it must replay the checkpoint topic and resume from its own
        # committed source position.
        fed.unregister(mirror)
        mirror.close()
        restarted = MirrorLink(
            mirror.link, ["orders"], sync_groups=["app"],
            source=east, target=west,
        )
        assert restarted.name == mirror.name
        fed.register(restarted)
        produce(east, 25, 50)
        fed.run_until_idle()

        east_rows = committed_records(east, ["orders"])
        west_rows = committed_records(west, ["orders"])
        assert east_rows == west_rows, "restart duplicated or lost records"
        # Previously-synced translations survive the restart exactly.
        assert restarted.translator.to_target(tp0, 5) == old_translation
        assert restarted.translator.to_source(tp0, synced_before) == 5

    def test_translation_maps_monotone_across_restarts(self):
        """End-to-end version of the property test: restart the link and
        confirm translations never regress and never overshoot."""
        fed = make_federation()
        east, west = fed.cluster("east"), fed.cluster("west")
        mirror = fed.add_mirror("east", "west", ["orders"])
        produce(east, 0, 30)
        fed.run_until_idle()
        tp0 = TopicPartition("orders", 0)
        end = east.end_offset(tp0, READ_COMMITTED)
        before = [mirror.translator.to_target(tp0, o) for o in range(end + 1)]

        fed.unregister(mirror)
        mirror.close()
        restarted = MirrorLink(mirror.link, ["orders"], source=east, target=west)
        after = [restarted.translator.to_target(tp0, o) for o in range(end + 1)]
        assert after == sorted(after), "restarted translation not monotone"
        assert all(a <= b for a, b in zip(after, before)), (
            "restarted translation overshot the original"
        )


class TestConstruction:
    def test_mirror_needs_topics(self):
        fed = make_federation()
        link = fed.connect("east", "west")
        with pytest.raises(ValueError, match="at least one topic"):
            MirrorLink(link, [])

    def test_mirror_endpoints_must_match_link(self):
        fed = make_federation()
        other = Federation(regions=("a", "b"), seed=3)
        other.cluster("a").create_topic("orders", 2)
        link = fed.connect("east", "west")
        with pytest.raises(ValueError, match="endpoints"):
            MirrorLink(
                link, ["orders"],
                source=other.cluster("a"), target=other.cluster("b"),
            )

    def test_federation_validates_regions(self):
        with pytest.raises(ValueError, match="at least two"):
            Federation(regions=("solo",))
        with pytest.raises(ValueError, match="duplicate"):
            Federation(regions=("east", "east"))
        fed = make_federation()
        with pytest.raises(ValueError, match="unknown region"):
            fed.cluster("north")
        with pytest.raises(ValueError, match="not connected"):
            fed.link("east", "west")

    def test_connect_is_idempotent_per_pair(self):
        fed = make_federation()
        link1 = fed.connect("east", "west", latency_ms=40.0)
        link2 = fed.connect("west", "east")
        assert link1 is link2
        assert fed.links() == [link1]

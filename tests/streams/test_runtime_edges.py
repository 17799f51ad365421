"""Runtime edge cases: driving helpers, lifecycle, metrics surfaces."""

import pytest

from repro.clients.producer import Producer
from repro.config import AT_LEAST_ONCE, EXACTLY_ONCE, StreamsConfig
from repro.sim.failures import FailureInjector
from repro.sim.network import FaultRule
from repro.streams import KafkaStreams, StreamsBuilder

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


def counting_app(cluster, guarantee=EXACTLY_ONCE, **kw):
    builder = StreamsBuilder()
    builder.stream("in").group_by_key().count("counts").to_stream().to("out")
    return KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(application_id="edge", processing_guarantee=guarantee, **kw),
    )


def produce(cluster, n):
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", key=f"k{i % 3}", value=1, timestamp=float(i))
    producer.flush()


class TestDriving:
    def test_run_for_advances_virtual_time(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        app = counting_app(cluster)
        app.start(1)
        start = cluster.clock.now
        app.run_for(500.0)
        assert cluster.clock.now >= start + 500.0

    def test_step_with_no_instances_is_noop(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        app = counting_app(cluster)
        assert app.step() == 0

    def test_close_commits_and_leaves(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        app = counting_app(cluster)
        app.start(2)
        produce(cluster, 9)
        app.run_until_idle()
        app.close()
        assert app.instances == []
        assert cluster.group_coordinator.assignment_snapshot("edge") == {}
        cluster.clock.advance(10.0)
        assert latest_by_key(drain_topic(cluster, "out")) == {
            "k0": 3, "k1": 3, "k2": 3
        }

    def test_restarting_closed_app_group_reuses_committed_offsets(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        app = counting_app(cluster)
        app.start(1)
        produce(cluster, 6)
        app.run_until_idle()
        app.close()
        # A brand-new app object with the same application id continues.
        app2 = counting_app(cluster)
        app2.start(1)
        produce(cluster, 3)
        app2.run_until_idle()
        cluster.clock.advance(10.0)
        final = latest_by_key(drain_topic(cluster, "out"))
        assert final == {"k0": 3, "k1": 3, "k2": 3}

    def test_task_ids_enumerates_all(self):
        cluster = make_cluster(**{"in": 4, "out": 1})
        app = counting_app(cluster)
        assert len(app.task_ids()) == 4

    def test_store_contents_empty_before_start(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        app = counting_app(cluster)
        assert app.store_contents("counts") == {}


class TestCommitIntervals:
    def test_longer_interval_fewer_commits(self):
        def commits(interval):
            cluster = make_cluster(**{"in": 1, "out": 1})
            app = counting_app(cluster, commit_interval_ms=interval)
            app.start(1)
            generator_producer = Producer(cluster)
            for i in range(200):
                generator_producer.send("in", key="k", value=1, timestamp=float(i))
                generator_producer.flush()
                app.step()
                cluster.clock.advance(5.0)
            app.run_until_idle()
            return sum(i.commits_performed for i in app.instances)

        assert commits(20.0) > commits(500.0)

    def test_alos_counts_match_eos_without_failures(self):
        def run(guarantee):
            cluster = make_cluster(**{"in": 2, "out": 2})
            app = counting_app(cluster, guarantee=guarantee)
            app.start(2)
            produce(cluster, 30)
            app.run_until_idle()
            cluster.clock.advance(10.0)
            return latest_by_key(
                drain_topic(cluster, "out", read_committed=(guarantee == EXACTLY_ONCE))
            )

        assert run(AT_LEAST_ONCE) == run(EXACTLY_ONCE)


class TestFailureInjectorHelpers:
    def test_crash_brokers_list(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        for broker_id in (1, 2):
            cluster.crash_broker(broker_id)
        assert cluster.alive_brokers() == [0]
        cluster.restart_broker(1)
        assert cluster.alive_brokers() == [0, 1]

    def test_drop_request_rule(self):
        cluster = make_cluster(t=1)
        rule = cluster.network.add_fault(
            FaultRule(kind="drop_request", match_api="produce")
        )
        producer = Producer(cluster)
        producer.send("t", key="k", value=1, partition=0)
        producer.flush()       # retry succeeds after the dropped request
        assert rule.triggered == 1
        from repro.broker.partition import TopicPartition

        log = cluster.partition_state(TopicPartition("t", 0)).leader_log()
        assert len([r for r in log.records() if not r.is_control]) == 1

    def test_delay_rule(self):
        cluster = make_cluster(t=1)
        cluster.network.charge_latency = True
        cluster.network.add_fault(
            FaultRule(kind="delay", match_api="produce", delay_ms=100.0)
        )
        before = cluster.clock.now
        producer = Producer(cluster)
        producer.send("t", key="k", value=1, partition=0)
        producer.flush()
        # The injected delay is jittered by the network's +/-10%.
        assert cluster.clock.now - before >= 85.0

    def test_clear_removes_rules(self):
        cluster = make_cluster(t=1)
        injector = FailureInjector(cluster)
        cluster.network.add_fault(
            FaultRule(kind="drop_request", match_api="produce", count=100)
        )
        injector.clear()
        producer = Producer(cluster)
        producer.send("t", key="k", value=1, partition=0)
        producer.flush()
        assert producer.retries_performed == 0

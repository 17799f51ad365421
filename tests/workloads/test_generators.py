"""Workload generators: rates, keys, lateness, created_at headers."""

import pytest

from repro.metrics.latency import CREATED_AT_HEADER
from repro.util import partition_for
from repro.workloads.conversations import ConversationGenerator
from repro.workloads.generator import LatenessModel, WorkloadGenerator
from repro.workloads.market_data import MarketDataGenerator
from repro.workloads.pageviews import PageViewGenerator

from tests.streams.harness import drain_topic, make_cluster


class TestWorkloadGenerator:
    def test_rate_controls_virtual_time(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(cluster, "t", rate_per_sec=100.0)
        start = cluster.clock.now
        # 500 ms of virtual time at 100/s -> 50 records.
        assert generator.produce_for(500.0) == 50
        assert cluster.clock.now - start == pytest.approx(500.0)

    def test_produce_for_duration(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(cluster, "t", rate_per_sec=1000.0)
        produced = generator.produce_for(100.0)
        assert produced == 100
        assert generator.records_produced == 100

    def test_records_carry_created_at(self):
        cluster = make_cluster(t=1)
        WorkloadGenerator(cluster, "t", rate_per_sec=100.0).produce_for(30.0)
        records = drain_topic(cluster, "t", read_committed=False)
        assert all(CREATED_AT_HEADER in r.headers for r in records)

    def test_keys_within_key_space(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(
            cluster, "t", rate_per_sec=100.0, key_space=3, key_prefix="u"
        )
        generator.produce_for(300.0)
        keys = {r.key for r in drain_topic(cluster, "t", read_committed=False)}
        assert keys <= {"u-0", "u-1", "u-2"}

    def test_deterministic_given_seed(self):
        def run():
            cluster = make_cluster(t=1)
            WorkloadGenerator(cluster, "t", rate_per_sec=50.0, seed=9).produce_for(400.0)
            return [
                (r.key, r.timestamp)
                for r in drain_topic(cluster, "t", read_committed=False)
            ]

        assert run() == run()

    def test_produce_for_columnar_routes_by_key_in_send_order(self):
        """Every record lands on ``partition_for(key, n)``, also for keys
        the second slice routes through the memo, and each partition holds
        its records in send order (the default value is the record's
        index)."""
        cluster = make_cluster(t=7)
        generator = WorkloadGenerator(
            cluster, "t", rate_per_sec=1000.0, key_space=40, seed=5
        )
        first = generator.produce_for_columnar(100.0)
        second = generator.produce_for_columnar(100.0)
        assert (first, second) == (100, 100)
        values = []
        for tp in cluster.partitions_for("t"):
            log = cluster.partition_state(tp).leader_log()
            landed = [r.value for r in log.records()]
            assert landed == sorted(landed)
            for record in log.records():
                assert tp.partition == partition_for(record.key, 7)
            values += landed
        assert sorted(values) == list(range(first + second))

    def test_invalid_config(self):
        cluster = make_cluster(t=1)
        with pytest.raises(ValueError):
            WorkloadGenerator(cluster, "t", rate_per_sec=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(cluster, "t", key_space=0)


class TestLateness:
    def test_no_lateness_by_default(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(cluster, "t", rate_per_sec=100.0)
        generator.produce_for(100.0)
        for record in drain_topic(cluster, "t", read_committed=False):
            assert record.timestamp == record.headers[CREATED_AT_HEADER]

    def test_lateness_shifts_event_time_backwards(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(
            cluster, "t", rate_per_sec=100.0,
            lateness=LatenessModel(late_fraction=1.0, mean_late_ms=50.0),
        )
        generator.produce_for(500.0)
        records = drain_topic(cluster, "t", read_committed=False)
        late = [
            r for r in records
            if r.timestamp < r.headers[CREATED_AT_HEADER]
        ]
        # Records near virtual time 0 clamp to event time 0 and may not be
        # strictly late; the vast majority must be.
        assert len(late) >= 45
        assert all(r.timestamp >= 0 for r in records)

    def test_lateness_capped(self):
        cluster = make_cluster(t=1)
        generator = WorkloadGenerator(
            cluster, "t", rate_per_sec=100.0,
            lateness=LatenessModel(
                late_fraction=1.0, mean_late_ms=1000.0, max_late_ms=20.0
            ),
        )
        generator.produce_for(500.0)
        for record in drain_topic(cluster, "t", read_committed=False):
            assert record.headers[CREATED_AT_HEADER] - record.timestamp <= 20.0


class TestDomainGenerators:
    def test_pageviews_shape(self):
        cluster = make_cluster(**{"pageview-events": 1})
        PageViewGenerator(cluster, rate_per_sec=100.0).produce_for(100.0)
        records = drain_topic(cluster, "pageview-events", read_committed=False)
        for record in records:
            assert {"category", "period", "page"} <= set(record.value)

    def test_market_data_outliers_marked(self):
        cluster = make_cluster(**{"market-data": 1})
        MarketDataGenerator(
            cluster, rate_per_sec=1000.0, outlier_fraction=0.5, seed=3
        ).produce_for(200.0)
        records = drain_topic(cluster, "market-data", read_committed=False)
        outliers = [r for r in records if r.value["outlier_truth"]]
        assert 0 < len(outliers) < len(records)
        for record in records:
            assert record.value["bid"] <= record.value["ask"]

    def test_conversations_ordered_per_key(self):
        cluster = make_cluster(**{"conversation-events": 2})
        ConversationGenerator(cluster, rate_per_sec=100.0).produce_for(1000.0)
        records = drain_topic(cluster, "conversation-events", read_committed=False)
        per_conv = {}
        for record in records:
            assert record.key == record.value["conversation"]
            per_conv.setdefault(record.key, []).append(record.value["seq"])
        # seq increments in partition order per conversation.
        for seqs in per_conv.values():
            assert seqs == sorted(seqs)

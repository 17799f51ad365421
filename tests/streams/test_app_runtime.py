"""KafkaStreams application runtime: tasks, assignment, internal topics."""

import pytest

from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, EXACTLY_ONCE_V1, StreamsConfig
from repro.errors import TopologyError
from repro.streams import KafkaStreams, StreamsBuilder, TimeWindows
from repro.streams.runtime.task import TaskId

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


def pageview_topology(num_repartition=None):
    builder = StreamsBuilder()
    (
        builder.stream("pageview-events")
        .filter(lambda k, v: v["period"] >= 30_000)
        .map(lambda k, v: (v["category"], v))
        .group_by_key(num_partitions=num_repartition)
        .windowed_by(TimeWindows.of(5000).grace(10_000))
        .count()
        .to_stream()
        .to("counts")
    )
    return builder.build()


class TestAppSetup:
    def test_figure3_task_layout(self):
        """Figure 3: source with 2 partitions, repartition with 3 -> the two
        sub-topologies get 3 and 2 tasks."""
        cluster = make_cluster(**{"pageview-events": 2, "counts": 3})
        app = KafkaStreams(
            pageview_topology(num_repartition=3),
            cluster,
            StreamsConfig(application_id="pv"),
        )
        tasks = app.task_ids()
        by_sub = {}
        for task in tasks:
            by_sub.setdefault(task.sub_id, []).append(task)
        assert sorted(len(v) for v in by_sub.values()) == [2, 3]

    def test_internal_topics_created(self):
        cluster = make_cluster(**{"pageview-events": 2, "counts": 3})
        KafkaStreams(
            pageview_topology(3), cluster, StreamsConfig(application_id="pv")
        )
        topics = set(cluster.topics)
        repartitions = [t for t in topics if t.startswith("pv-") and "repartition" in t]
        changelogs = [t for t in topics if t.startswith("pv-") and "changelog" in t]
        assert len(repartitions) == 1
        assert len(changelogs) == 1
        # Changelog partitions == downstream task count (3).
        assert cluster.topic_metadata(changelogs[0]).num_partitions == 3

    def test_repartition_defaults_to_source_partitions(self):
        cluster = make_cluster(**{"pageview-events": 4, "counts": 1})
        KafkaStreams(
            pageview_topology(None), cluster, StreamsConfig(application_id="pv")
        )
        topic = next(t for t in cluster.topics if "repartition" in t and t.startswith("pv-"))
        assert cluster.topic_metadata(topic).num_partitions == 4

    def test_missing_source_topic_raises(self):
        cluster = make_cluster(counts=1)
        from repro.errors import UnknownTopicOrPartitionError

        with pytest.raises(UnknownTopicOrPartitionError):
            KafkaStreams(
                pageview_topology(1), cluster, StreamsConfig(application_id="pv")
            )

    def test_two_apps_coexist_on_one_cluster(self):
        cluster = make_cluster(**{"pageview-events": 2, "counts": 2})
        KafkaStreams(pageview_topology(2), cluster, StreamsConfig(application_id="a"))
        KafkaStreams(pageview_topology(2), cluster, StreamsConfig(application_id="b"))
        assert any(t.startswith("a-") for t in cluster.topics)
        assert any(t.startswith("b-") for t in cluster.topics)


class TestTaskDistribution:
    def test_tasks_balanced_across_instances(self):
        cluster = make_cluster(**{"pageview-events": 2, "counts": 3})
        app = KafkaStreams(
            pageview_topology(3), cluster, StreamsConfig(application_id="pv")
        )
        app.start(2)
        app.step()
        counts = sorted(len(i.tasks) for i in app.instances)
        assert counts == [2, 3]

    def test_task_has_all_copartitioned_inputs(self):
        """A task covering multiple source topics gets the same partition
        of each (needed for joins)."""
        cluster = make_cluster(left=2, right=2, out=2)
        builder = StreamsBuilder()
        from repro.streams import JoinWindows

        left = builder.stream("left")
        right = builder.stream("right")
        left.join(right, lambda a, b: (a, b), JoinWindows.of(100)).to("out")
        app = KafkaStreams(builder.build(), cluster, StreamsConfig(application_id="j"))
        app.start(1)
        app.step()
        (instance,) = app.instances
        for task_id, task in instance.tasks.items():
            partitions = {tp.partition for tp in task.partitions}
            assert partitions == {task_id.partition}
            topics = {tp.topic for tp in task.partitions}
            assert topics == {"left", "right"}

    def test_sticky_task_assignment_on_scale_out(self):
        cluster = make_cluster(**{"pageview-events": 4, "counts": 4})
        app = KafkaStreams(
            pageview_topology(4), cluster, StreamsConfig(application_id="pv")
        )
        app.start(1)
        app.step()
        (first,) = app.instances
        before = set(first.tasks)
        app.add_instance()
        app.step()
        after = set(first.tasks)
        # The original instance kept a subset of its tasks (stickiness).
        assert after <= before
        assert len(after) >= 1


class TestProducerModes:
    def _run(self, guarantee):
        cluster = make_cluster(**{"pageview-events": 4, "counts": 4})
        app = KafkaStreams(
            pageview_topology(4),
            cluster,
            StreamsConfig(application_id="pv", processing_guarantee=guarantee),
        )
        app.start(1)
        producer = Producer(cluster)
        for i in range(20):
            producer.send(
                "pageview-events",
                key=f"u{i}",
                value={"category": "c", "period": 40_000},
                timestamp=float(i),
            )
        producer.flush()
        app.run_until_idle()
        return app

    def test_eos_v2_one_producer_per_instance(self):
        app = self._run(EXACTLY_ONCE)
        (instance,) = app.instances
        # 8 tasks, but a single transactional producer (Section 6.1: the
        # overhead scales with threads, not partitions).
        assert len(instance.tasks) == 8
        assert instance.transactional_producer_count() == 1

    def test_eos_v1_one_producer_per_task(self):
        app = self._run(EXACTLY_ONCE_V1)
        (instance,) = app.instances
        assert instance.transactional_producer_count() == len(instance.tasks)

    def test_both_modes_produce_same_results(self):
        outputs = {}
        for guarantee in (EXACTLY_ONCE, EXACTLY_ONCE_V1):
            app = self._run(guarantee)
            records = drain_topic(app.cluster, "counts")
            outputs[guarantee] = latest_by_key(records)
        assert outputs[EXACTLY_ONCE] == outputs[EXACTLY_ONCE_V1]

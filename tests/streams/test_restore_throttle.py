"""Throttled state restoration: checkpoint resume, bounded rounds, fairness."""

import pytest

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import ProducerConfig, StreamsConfig
from repro.obs.recovery import RecoveryTracker
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.runtime.restore import restore_store
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.util import partition_for

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


def changelog_cluster(n_records=20):
    cluster = make_cluster(changelog=1)
    producer = Producer(cluster)
    for i in range(n_records):
        producer.send("changelog", key=f"k{i % 4}", value=i)
    producer.flush()
    return cluster


class TestRestoreStore:
    def test_resume_from_nonzero_checkpoint(self):
        # A standby handoff (or an earlier partial restore) passes its
        # position as from_offset: only the suffix is replayed.
        cluster = changelog_cluster(20)
        store = InMemoryKeyValueStore("s")
        applied, next_offset, complete = restore_store(
            cluster, store, "changelog", 0, from_offset=12
        )
        assert (applied, next_offset, complete) == (8, 20, True)
        # Only keys touched by offsets 12..19 are present.
        assert store.get("k0") == 16
        assert store.get("k3") == 19

    def test_full_rebuild_from_zero(self):
        cluster = changelog_cluster(20)
        store = InMemoryKeyValueStore("s")
        applied, next_offset, complete = restore_store(
            cluster, store, "changelog", 0
        )
        assert (applied, next_offset, complete) == (20, 20, True)
        assert latest_by_key(drain_topic(cluster, "changelog")) == {
            f"k{i}": 16 + i for i in range(4)
        }

    def test_max_records_bounds_each_round(self):
        cluster = changelog_cluster(23)
        store = InMemoryKeyValueStore("s")
        offset, rounds = 0, []
        while True:
            applied, offset, complete = restore_store(
                cluster, store, "changelog", 0,
                from_offset=offset, max_records=5,
            )
            rounds.append(applied)
            if complete:
                break
        assert rounds == [5, 5, 5, 5, 3]
        assert offset == 23
        assert store.get("k2") == 22

    def test_not_complete_while_a_transaction_is_open_on_the_changelog(self):
        # A previous owner's commit still open on the changelog: its input
        # offsets land with its markers, so a store restored without its
        # updates is not done yet.
        cluster = changelog_cluster(8)
        owner = Producer(cluster, ProducerConfig(transactional_id="owner"))
        owner.init_transactions()
        owner.begin_transaction()
        owner.send("changelog", key="k0", value=100, partition=0)
        owner.flush()
        store = InMemoryKeyValueStore("s")
        applied, next_offset, complete = restore_store(
            cluster, store, "changelog", 0
        )
        assert (applied, next_offset, complete) == (8, 8, False)
        assert store.get("k0") == 4
        owner.commit_transaction()
        applied, next_offset, complete = restore_store(
            cluster, store, "changelog", 0, from_offset=next_offset
        )
        assert (applied, complete) == (1, True)
        assert store.get("k0") == 100

    def test_recovery_tracker_counts_task_but_not_standby_replay(self):
        cluster = changelog_cluster(10)
        tracker = RecoveryTracker(cluster.clock).install(cluster)
        tracker.note_fault("test")
        store = InMemoryKeyValueStore("s")
        restore_store(cluster, store, "changelog", 0, kind="standby")
        assert tracker.restored_records() == 0
        restore_store(
            cluster, InMemoryKeyValueStore("s2"), "changelog", 0, kind="task"
        )
        assert tracker.restored_records() == 10
        RecoveryTracker.uninstall(cluster)


# -- instance-level throttling -----------------------------------------------


def max_value(agg, v):
    return agg if agg >= v else v


def build_app(budget):
    cluster = make_cluster(**{"in": 2, "out": 2})
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .group_by_key()
        .reduce(max_value, store_name="maxes")
        .to_stream()
        .to("out")
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="throttle-app",
            commit_interval_ms=20.0,
            restore_max_records_per_poll=budget,
        ),
    )
    app.start(2)
    return cluster, app


def produce(cluster, start, n, keys=6):
    producer = Producer(cluster)
    for i in range(start, start + n):
        producer.send("in", key=f"k{i % keys}", value=i, timestamp=float(i))
    producer.flush()


class TestThrottledMigration:
    def test_replacement_restores_in_bounded_rounds_while_survivor_processes(
        self,
    ):
        cluster, app = build_app(budget=7)
        # Distinct keys: changelog depth is then a property of the data,
        # however many updates of one key a task folds into one append.
        produce(cluster, 0, 120, keys=120)
        app.run_until_idle(max_steps=50_000)

        victim = app.instances[0]
        survivor = app.instances[1]
        app.crash_instance(victim)
        replacement = app.add_instance()
        produce(cluster, 120, 24)

        # Step the pair manually so the throttled window is observable.
        saw_throttled = False
        survivor_before = survivor.records_processed
        for _ in range(400):
            replacement.step()
            survivor.step()
            restoring = [
                t for t in replacement.tasks.values() if t.is_restoring
            ]
            if restoring:
                saw_throttled = True
            if (
                replacement.tasks
                and not restoring
                and survivor.records_processed > survivor_before
            ):
                break
        # Budget (7) is far below the changelog depth, so the restore
        # must have spanned multiple polls instead of one blocking build.
        assert saw_throttled
        assert sum(
            t.restored_records for t in replacement.tasks.values()
        ) > 0
        # The survivor's live task kept processing during the mass restore.
        assert survivor.records_processed > survivor_before

        app.run_until_idle(max_steps=50_000)
        expected = {f"k{i}": i for i in range(120)}
        expected.update({f"k{i}": 138 + i for i in range(6)})
        assert latest_by_key(drain_topic(cluster, "out")) == expected

    def test_throttled_and_unthrottled_restores_agree(self):
        results = []
        for budget in (0, 5):
            cluster, app = build_app(budget=budget)
            produce(cluster, 0, 90)
            app.run_until_idle(max_steps=50_000)
            app.crash_instance(app.instances[0])
            app.add_instance()
            produce(cluster, 90, 18)
            app.run_until_idle(max_steps=50_000)
            results.append(latest_by_key(drain_topic(cluster, "out")))
        assert results[0] == results[1]

    def test_smallest_lag_completes_first(self):
        # Two partitions with very different changelog depths land on the
        # same replacement: the shallow task must come online first.
        cluster, app = build_app(budget=4)
        producer = Producer(cluster)
        # Partition routing is by key hash; find distinct keys for each
        # partition, so depth does not depend on how many updates of one
        # key a task folds into one changelog append.
        wanted = {0: 80, 1: 6}
        by_partition = {0: [], 1: []}
        i = 0
        while any(len(by_partition[p]) < n for p, n in wanted.items()):
            key = f"p{i}"
            partition = partition_for(key, 2)
            if len(by_partition[partition]) < wanted[partition]:
                by_partition[partition].append(key)
            i += 1
        for keys in by_partition.values():
            for j, key in enumerate(keys):
                producer.send("in", key=key, value=j, timestamp=float(j))
        producer.flush()
        app.run_until_idle(max_steps=50_000)

        for victim in list(app.instances):
            app.crash_instance(victim)
        replacement = app.add_instance()
        completion_order = []
        for _ in range(600):
            replacement.step()
            for task in replacement.tasks.values():
                if (
                    not task.is_restoring
                    and task.restored_records
                    and task.task_id not in completion_order
                ):
                    completion_order.append(task.task_id)
            if len(completion_order) == 2:
                break
        assert len(completion_order) == 2
        restored = {
            t.task_id: t.restored_records
            for t in replacement.tasks.values()
        }
        # The shallow (6-record) task finished before the deep (80-record)
        # one: smallest-lag-first prioritization.
        first, second = completion_order
        assert restored[first] < restored[second]

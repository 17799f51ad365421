"""Cooperative incremental rebalancing, lag-aware placement, and warmups.

The KIP-429/KIP-441 behaviours end to end: two-phase partition handover
(retained tasks keep processing while moved ones migrate), lag-gated
placement with warmup standbys and probing rebalances, the standby-replica
cap via rendezvous hashing, assignment balance, and protocol-independent
committed output.
"""

import pytest

from repro.broker.group_coordinator import GroupMember
from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import COOPERATIVE, EAGER, EXACTLY_ONCE, StreamsConfig
from repro.sim.invariants import committed_records
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.runtime.assignor import StreamsAssignor
from repro.streams.runtime.task import TaskId

from tests.streams.harness import drain_topic, latest_by_key, make_cluster

PARTITIONS = 4
KEYS = [f"k{i}" for i in range(8)]


def make_app(
    cluster,
    protocol=COOPERATIVE,
    standbys=0,
    recovery_lag=10_000,
    probing_interval_ms=200.0,
):
    builder = StreamsBuilder()
    builder.stream("in").group_by_key().count("counts").to_stream().to("out")
    return KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="coop",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=300.0,
            rebalance_protocol=protocol,
            num_standby_replicas=standbys,
            acceptable_recovery_lag=recovery_lag,
            probing_rebalance_interval_ms=probing_interval_ms,
        ),
    )


def produce(cluster, n, start=0):
    producer = Producer(cluster)
    for i in range(start, start + n):
        producer.send("in", key=KEYS[i % len(KEYS)], value=1, timestamp=float(i))
    producer.flush()


def expected_counts(n):
    out = {}
    for i in range(n):
        key = KEYS[i % len(KEYS)]
        out[key] = out.get(key, 0) + 1
    return out


class TestTwoPhaseHandover:
    def test_scale_out_defers_moved_partitions_until_ack(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster)
        first = app.start(1).instances[0]
        produce(cluster, 40)
        app.run_until_idle()
        assert len(first.tasks) == PARTITIONS

        second = app.add_instance()
        coordinator = cluster.group_coordinator
        # Phase one ran inside add_instance: the incumbent's coordinator
        # assignment shrank to the intersection, but the moved partitions
        # are withheld from the newcomer until the incumbent acks.
        assert coordinator.group_protocol("coop") == COOPERATIVE
        unreleased = coordinator.unreleased_partitions("coop")
        assert unreleased
        assert set(unreleased.values()) == {first.consumer.member_id}
        assert coordinator.assignment_snapshot("coop")[
            second.consumer.member_id
        ] == []
        # The incumbent has not polled yet, so it still hosts everything.
        assert len(first.tasks) == PARTITIONS

    def test_retained_tasks_process_during_handover(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster)
        first = app.start(1).instances[0]
        produce(cluster, 40)
        app.run_until_idle()
        tasks_before = dict(first.tasks)

        second = app.add_instance()
        produce(cluster, 40, start=40)
        processed = first.step()
        # Mid-rebalance the incumbent closed only the moved tasks and kept
        # processing the retained ones — the continuity claim.
        assert processed > 0
        retained = set(first.tasks)
        assert len(retained) == PARTITIONS - len(
            cluster.group_coordinator.assignment_snapshot("coop")[
                second.consumer.member_id
            ]
        ) or len(retained) < PARTITIONS
        for task_id, task in first.tasks.items():
            assert task is tasks_before[task_id], "retained task was rebuilt"

        app.run_until_idle()
        assert len(first.tasks) == len(second.tasks) == PARTITIONS // 2
        assert latest_by_key(drain_topic(cluster, "out")) == expected_counts(80)

    def test_eager_protocol_still_supported(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster, protocol=EAGER)
        app.start(1)
        produce(cluster, 40)
        app.run_until_idle()
        app.add_instance()
        assert cluster.group_coordinator.group_protocol("coop") == EAGER
        assert cluster.group_coordinator.unreleased_partitions("coop") == {}
        produce(cluster, 40, start=40)
        app.run_until_idle()
        assert latest_by_key(drain_topic(cluster, "out")) == expected_counts(80)

    def test_rebalance_metrics_populated(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster)
        app.start(1)
        produce(cluster, 40)
        app.run_until_idle()
        app.add_instance()
        produce(cluster, 40, start=40)
        app.run_until_idle()
        counters = cluster.metrics.counters()
        assert counters.get("rebalance_count{group=coop,protocol=cooperative}", 0) > 0
        assert counters.get("tasks_revoked_total{app=coop}", 0) > 0
        assert counters.get("tasks_retained_total{app=coop}", 0) > 0
        histogram = cluster.metrics.histogram(
            "rebalance_unavailability_ms", app="coop"
        )
        assert histogram.count > 0, "no unavailability window was measured"

    def test_idle_time_before_a_revocation_is_not_unavailability(self):
        """A task with nothing uncommitted is committed as of the moment it
        is revoked: the window must not reach back to the last time the
        (since idle) instance had something to commit."""
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster)
        app.start(1)
        produce(cluster, 40)
        app.run_until_idle()
        cluster.clock.advance(5_000.0)        # idle, fully committed
        app.add_instance()
        produce(cluster, 40, start=40)
        app.run_until_idle()
        histogram = cluster.metrics.histogram(
            "rebalance_unavailability_ms", app="coop"
        )
        assert histogram.count > 0
        assert histogram.percentile(100) < 1_000.0


class TestLagAwarePlacement:
    def test_warmup_then_probing_rebalance_migrates(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster, recovery_lag=0)
        first = app.start(1).instances[0]
        produce(cluster, 80)
        app.run_until_idle()

        second = app.add_instance()
        restores = []
        app.restore_listener = (
            lambda task_id, name, store, log, p, next_off, from_off=0:
            restores.append((task_id, from_off))
        )
        app.step()
        # The newcomer's changelog lag exceeds acceptable_recovery_lag, so
        # no stateful task moved: the incumbent still owns everything and
        # the newcomer is building warmup standbys instead.
        assert len(first.tasks) == PARTITIONS
        assert second.tasks == {}
        warmups = app.assignor.warmup_tasks_for(second.consumer.member_id)
        assert len(warmups) == PARTITIONS // 2
        assert set(second.standby_tasks) == warmups

        # Once the warmups catch up, the probing rebalance migrates them.
        app.run_for(1_000.0)
        app.run_until_idle()
        assert app.assignor.probing_rebalances >= 1
        assert not app.assignor.has_warmups()
        assert len(first.tasks) == len(second.tasks) == PARTITIONS // 2
        migrated = [t for t, from_off in restores if from_off > 0]
        assert migrated, "migration did not reuse the warmup standby state"

        produce(cluster, 40, start=80)
        app.run_until_idle()
        assert latest_by_key(drain_topic(cluster, "out")) == expected_counts(120)

    def test_high_recovery_lag_moves_immediately(self):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster, recovery_lag=10_000)
        first = app.start(1).instances[0]
        produce(cluster, 40)
        app.run_until_idle()
        second = app.add_instance()
        app.run_until_idle()
        assert app.assignor.probing_rebalances == 0
        assert not app.assignor.has_warmups()
        assert len(first.tasks) == len(second.tasks) == PARTITIONS // 2


class TestStandbyReplicaCap:
    @pytest.mark.parametrize("replicas,expected", [(1, 1), (2, 2)])
    def test_at_most_n_standbys_per_task(self, replicas, expected):
        cluster = make_cluster(**{"in": 2, "out": 2})
        app = make_app(cluster, protocol=EAGER, standbys=replicas)
        app.start(3)
        produce(cluster, 20)
        app.run_until_idle()
        for task_id in app.task_ids():
            owners = [i for i in app.instances if task_id in i.tasks]
            shadows = [i for i in app.instances if task_id in i.standby_tasks]
            assert len(owners) == 1
            assert len(shadows) == expected, (
                f"{task_id}: {len(shadows)} standbys, wanted {expected}"
            )
            assert owners[0] not in shadows


class TestAssignmentBalance:
    def _members(self, ids):
        return {m: GroupMember(m, ("in",)) for m in ids}

    def _spread(self, assignment):
        sizes = [len(tps) for tps in assignment.values()]
        return max(sizes) - min(sizes)

    def test_fresh_assignment_spread_at_most_one(self):
        tasks = {TaskId(0, p): [TopicPartition("in", p)] for p in range(7)}
        assignor = StreamsAssignor(tasks)
        partitions = [TopicPartition("in", p) for p in range(7)]
        # Member ids of different lengths: the old tie-break keyed on id
        # length and piled every unplaced task onto the shortest id.
        members = self._members(["a", "bb", "ccc"])
        assignment = assignor(members, partitions)
        assert self._spread(assignment) <= 1
        assert sum(len(tps) for tps in assignment.values()) == 7

    def test_scale_out_rebalances_to_spread_one(self):
        tasks = {TaskId(0, p): [TopicPartition("in", p)] for p in range(8)}
        assignor = StreamsAssignor(tasks)
        partitions = [TopicPartition("in", p) for p in range(8)]
        members = self._members(["alpha"])
        members["alpha"].assignment = assignor(members, partitions)["alpha"]
        members.update(self._members(["b", "cc"]))
        assignment = assignor(members, partitions)
        assert self._spread(assignment) <= 1
        # Stickiness: the incumbent kept a full quota of its old work.
        kept = set(assignment["alpha"]) & set(members["alpha"].assignment)
        assert len(kept) == len(assignment["alpha"])


class TestProtocolEquivalence:
    def _run(self, protocol):
        cluster = make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
        app = make_app(cluster, protocol=protocol)
        app.start(1)
        produce(cluster, 40)
        app.run_for(100.0)
        app.add_instance()
        produce(cluster, 40, start=40)
        app.run_for(200.0)
        app.remove_instance(app.instances[0])
        produce(cluster, 40, start=80)
        app.run_until_idle()
        app.close()
        return committed_records(cluster, ["out"])

    def test_committed_output_identical_across_protocols(self):
        eager = self._run(EAGER)
        cooperative = self._run(COOPERATIVE)
        for topic in eager:
            assert sorted(eager[topic], key=repr) == sorted(
                cooperative[topic], key=repr
            ), "committed output differs between rebalance protocols"
        assert latest_by_key_rows(eager["out"]) == expected_counts(120)


def latest_by_key_rows(rows):
    out = {}
    for _partition, key, value in rows:
        out[key] = value
    return out

"""Placement is synced on change, not on every step.

``StreamsInstance.step`` re-derives which tasks and standbys it hosts only
when ``consumer.assignment_epoch`` or ``app.placement_epoch`` has moved
since its last completed sync. The reference is the loop it replaced —
sync on every step — forced from the test side by
``harness.sync_every_step()``: every seeded scenario below must give the
same committed output, the same per-step ``(tasks, standby_tasks)``
ownership on every instance, the same RPC counts and the same final clock
either way. The spy tests then count the syncs themselves: none while
nothing moves, a handful per rebalance however many steps lie between.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.clients.producer import Producer
from repro.config import COOPERATIVE, EAGER
from repro.errors import UnstableOffsetCommitError
from repro.sim.invariants import (
    CommittedOutputEquality,
    InvariantSuite,
    committed_records,
)
from repro.sim.scenarios import ScenarioHarness
from repro.streams import KafkaStreams
from repro.streams.runtime.instance import StreamsInstance

from tests.integration.test_speculative_processing import (
    downstream_app,
    upstream_app,
)
from tests.streams import harness
from tests.streams.harness import sync_every_step
from tests.streams.test_cooperative_rebalance import (
    KEYS,
    PARTITIONS,
    expected_counts,
    make_app,      # a keyed count "in" -> "out", EOS, 20 ms commits
    produce,
)

#: ``make_app``'s application id, and those whose placement is observed.
APP = "coop"
OBSERVED = {APP, "down"}


def make_cluster(latency: bool):
    cluster = harness.make_cluster(**{"in": PARTITIONS, "out": PARTITIONS})
    cluster.network.charge_latency = latency
    return cluster


# -- the scenarios: each builds a fresh world, runs it, returns the cluster ----
# Each also asserts that the situation it is named for really arose, so a
# change elsewhere cannot quietly turn it into a fault-free run.


def instance_loss(seed):
    def cell():
        cluster = make_cluster(latency=False)
        app = make_app(cluster, protocol=EAGER)
        app.start(2)
        produce(cluster, 120)
        return cluster, app

    golden_cluster, golden_app = cell()
    golden_app.run_until_idle(max_steps=50_000)
    golden = committed_records(golden_cluster, ["out"])
    cluster, app = cell()
    result = ScenarioHarness(
        cluster, app, "instance_loss", seed=seed,
        invariants=InvariantSuite(), horizon_ms=1_000.0,
    ).run(golden_invariant=CommittedOutputEquality(golden))
    assert result.faults_injected == 1 and result.converged
    return cluster


def rolling_bounce(protocol):
    cluster = make_cluster(latency=True)
    app = make_app(cluster, protocol=protocol)
    app.start(2)
    produce(cluster, 40)
    app.run_for(100.0)
    sent = 40
    for _ in range(2):
        app.remove_instance(app.instances[0])
        produce(cluster, 40, start=sent)
        app.run_for(100.0)
        app.add_instance()
        produce(cluster, 40, start=sent + 40)
        app.run_for(150.0)
        sent += 80
    app.run_until_idle()
    assert sorted(len(i.tasks) for i in app.instances) == [2, 2]
    app.close()
    return cluster


def coordinator_kill_during_handover():
    cluster = make_cluster(latency=True)
    app = make_app(cluster, protocol=COOPERATIVE)
    app.start(1)
    produce(cluster, 40)
    app.run_until_idle()
    app.add_instance()
    coordinator = cluster.group_coordinator
    assert coordinator.unreleased_partitions(APP), "no handover in flight"
    victim = cluster.leader_of(coordinator.offsets_partition(APP))
    cluster.crash_broker(victim)
    produce(cluster, 40, start=40)
    app.run_for(300.0)
    cluster.restart_broker(victim)
    produce(cluster, 40, start=80)
    app.run_for(300.0)
    app.run_until_idle()
    assert sorted(len(i.tasks) for i in app.instances) == [2, 2]
    return cluster


def kip447_deferral():
    """A new owner joins while the previous owner's revocation-barrier
    commit still has markers in flight. Its sync runs to the end, but its
    consumer withholds the adopted partitions (no position, so nothing is
    fetched) until the markers land, and then starts each at the offset
    that commit wrote; its tasks' stores are not restored while that
    commit is still open on their changelogs. The committed counts equal
    a fault-free run's: no update of the barrier commit is lost."""
    cluster = make_cluster(latency=True)
    # Slow marker appends: the commit's markers outlast the newcomer's poll.
    cluster.network.costs.marker_write_ms = 10.0
    app = make_app(cluster, protocol=EAGER)
    app.start(1)
    produce(cluster, 100)
    app.run_until_idle()            # committed: the offsets a stale read sees
    produce(cluster, 100, start=100)
    app.step()                      # uncommitted work for the barrier commit
    coordinator = cluster.group_coordinator
    before = coordinator.fetch_committed(APP, cluster.partitions_for("in"))
    newcomer = app.add_instance()
    adopted = newcomer.consumer.assignment()
    app.step()
    assert newcomer.tasks, "the new owner's sync did not run to the end"
    assert not coordinator.offsets_stable(APP), "no commit was in flight"
    while not coordinator.offsets_stable(APP):
        for tp in adopted:
            with pytest.raises(UnstableOffsetCommitError):
                newcomer.consumer.position(tp)
        cluster.clock.advance(1.0)
    starts = {tp: newcomer.consumer.position(tp) for tp in adopted}
    assert starts == coordinator.fetch_committed(APP, adopted)
    assert all(starts[tp] != before[tp] for tp in adopted), (
        "the in-flight commit did not move the adopted partitions"
    )
    produce(cluster, 100, start=200)    # counted on top of the restored state
    app.run_until_idle()
    assert sorted(len(i.tasks) for i in app.instances) == [2, 2]
    latest = {key: count for _, key, count in committed_records(cluster, ["out"])["out"]}
    assert latest == expected_counts(300), "the new owner lost updates"
    return cluster


def standbys_with_warmups():
    cluster = make_cluster(latency=True)
    app = make_app(cluster, protocol=COOPERATIVE, standbys=1, recovery_lag=0)
    app.start(2)
    produce(cluster, 80)
    app.run_until_idle()
    newcomer = app.add_instance()
    app.step()
    assert app.assignor.warmup_tasks_for(newcomer.consumer.member_id)
    produce(cluster, 40, start=80)
    app.run_for(1_000.0)
    app.run_until_idle()
    assert app.assignor.probing_rebalances >= 1
    assert newcomer.tasks, "the warm-up never turned into a migration"
    app.crash_instance(app.instances[0])
    produce(cluster, 40, start=120)
    app.run_for(500.0)
    app.run_until_idle()
    return cluster


def zombie_kicked_from_the_group():
    cluster = make_cluster(latency=False)
    app = make_app(cluster, protocol=EAGER)
    zombie = app.add_instance()
    produce(cluster, 60)
    zombie.step()
    cluster.group_coordinator.leave_group(APP, zombie.consumer.member_id)
    app.add_instance().step()
    with mock.patch.object(
        StreamsInstance, "_handle_migration", autospec=True,
        side_effect=StreamsInstance._handle_migration,
    ) as migrated:
        for _ in range(5):
            zombie.step()
            cluster.clock.advance(25.0)
        assert migrated.call_count, "the zombie never noticed it was kicked"
    cluster.clock.advance(500.0)
    app.run_until_idle(max_steps=20_000)
    cluster.clock.advance(500.0)
    app.run_until_idle(max_steps=20_000)
    return cluster


def speculative_rollback():
    """An upstream transaction the downstream speculated on aborts: the
    downstream drops every task and must re-create them on its next step."""
    cluster = harness.make_cluster(**{"in": 1, "mid": 1, "out": 1})
    up = upstream_app(cluster, commit_interval_ms=10_000.0)
    down = downstream_app(cluster, speculative=True)
    up.start(1)
    (down_instance,) = down.start(1).instances
    producer = Producer(cluster)
    for i in range(10):
        producer.send("in", key="k", value=1, timestamp=float(i))
    producer.flush()
    up.step()
    down.step()
    up.crash_instance(up.instances[0])
    cluster.clock.advance(2_500.0)
    down.step()
    down.commit_all()
    assert down_instance.speculation_rollbacks >= 1
    up.add_instance()
    for _ in range(10):
        up.step()
        down.step()
        cluster.clock.advance(150.0)
    up.commit_all()
    down.step()
    down.commit_all()
    cluster.clock.advance(10.0)
    assert down_instance.tasks
    return cluster


SCENARIOS = {
    "instance_loss-7": lambda: instance_loss(7),
    "instance_loss-23": lambda: instance_loss(23),
    "rolling_bounce-cooperative": lambda: rolling_bounce(COOPERATIVE),
    "rolling_bounce-eager": lambda: rolling_bounce(EAGER),
    "coordinator_kill_during_handover": coordinator_kill_during_handover,
    "kip447_deferral": kip447_deferral,
    "standbys_with_warmups": standbys_with_warmups,
    "zombie_kicked": zombie_kicked_from_the_group,
    "speculative_rollback": speculative_rollback,
}


# -- observation ---------------------------------------------------------------


@contextmanager
def ownership_timeline(timeline):
    """Append, after every ``KafkaStreams.step`` of the app under test, who
    hosts what: ``((instance_id, tasks, standby_tasks), ...)``."""
    step = KafkaStreams.step

    def recorded_step(app):
        processed = step(app)
        if app.config.application_id in OBSERVED:
            timeline.append(
                tuple(
                    (
                        instance.instance_id,
                        tuple(sorted(instance.tasks)),
                        tuple(sorted(instance.standby_tasks)),
                    )
                    for instance in app.instances
                )
            )
        return processed

    with mock.patch.object(KafkaStreams, "step", recorded_step):
        yield


@contextmanager
def counting_syncs(counts):
    """Count ``_sync_tasks`` runs per instance id into ``counts``."""
    sync = StreamsInstance._sync_tasks

    def counted(self):
        counts[self.instance_id] = counts.get(self.instance_id, 0) + 1
        return sync(self)

    with mock.patch.object(StreamsInstance, "_sync_tasks", counted):
        yield


def observe(scenario, every_step):
    timeline, syncs = [], {}
    with ExitStack() as stack:
        if every_step:
            stack.enter_context(sync_every_step())
        stack.enter_context(ownership_timeline(timeline))
        stack.enter_context(counting_syncs(syncs))
        cluster = scenario()
    return {
        "committed": committed_records(cluster, ["out"]),
        "timeline": timeline,
        "rpc_counts": dict(cluster.network.rpc_counts),
        "clock": cluster.clock.now,
    }, sum(syncs.values())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sync_on_change_equals_sync_every_step(name):
    on_change, syncs_on_change = observe(SCENARIOS[name], every_step=False)
    every_step, syncs_every_step = observe(SCENARIOS[name], every_step=True)
    assert on_change["timeline"], "the scenario never stepped the app"
    assert on_change["committed"]["out"], "the scenario committed nothing"
    for aspect in ("committed", "rpc_counts", "clock"):
        assert on_change[aspect] == every_step[aspect], aspect
    for index, (ours, reference) in enumerate(
        zip(on_change["timeline"], every_step["timeline"])
    ):
        assert ours == reference, f"ownership differs at app step {index}"
    assert len(on_change["timeline"]) == len(every_step["timeline"])
    # The reference really is the every-step loop, and the change is not.
    assert syncs_every_step >= len(every_step["timeline"])
    assert syncs_on_change < syncs_every_step


# -- how often the sync runs ---------------------------------------------------


def test_a_steady_run_performs_no_syncs():
    cluster = make_cluster(latency=True)
    app = make_app(cluster, protocol=EAGER, standbys=1)
    app.start(2)
    produce(cluster, 80)
    app.run_until_idle()                    # warm-up: tasks and standbys up
    assert all(i.tasks and i.standby_tasks for i in app.instances)
    syncs = {}
    sent = 80
    with counting_syncs(syncs):
        for step in range(500):
            if step % 25 == 0:
                produce(cluster, 16, start=sent)
                sent += 16
            app.step()
            cluster.clock.advance(1.0)
    assert syncs == {}
    app.run_until_idle()
    rows = committed_records(cluster, ["out"])["out"]
    assert max(value for _p, _key, value in rows) == sent // len(KEYS)


def syncs_for(rebalances, steps_between):
    cluster = make_cluster(latency=True)
    app = make_app(cluster, protocol=COOPERATIVE, standbys=1)
    app.start(2)
    produce(cluster, 40)
    app.run_until_idle()
    syncs = {}
    sent = 40
    with counting_syncs(syncs):
        for _ in range(rebalances):
            app.crash_instance(app.instances[0])
            app.add_instance()
            for step in range(steps_between):
                if step % 50 == 0:
                    produce(cluster, 8, start=sent)
                    sent += 8
                app.step()
                cluster.clock.advance(1.0)
    assert sorted(len(i.tasks) for i in app.instances) == [2, 2]
    return sum(syncs.values())


def test_syncs_grow_with_rebalances_not_with_steps():
    one, four = syncs_for(1, 300), syncs_for(4, 300)
    assert 0 < one <= 16, one              # a handful per replaced instance
    assert four <= 4 * 16, four
    assert syncs_for(4, 600) == four       # 1 200 more steps, not one more sync

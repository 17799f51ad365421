"""The deterministic chaos engine, end to end.

A seeded :class:`ChaosController` drives the two-stage counting topology
through broker crashes, leadership churn, coordinator kills, instance
crashes, lost acks, gray brokers, and severed links — with the invariant
suite evaluated continuously and the committed output compared to a
fault-free golden run. Regression cases deliberately disable idempotence
and read-committed filtering to prove the checkers actually catch the
violations they claim to.
"""

import pytest

from repro.clients.producer import Producer
from repro.config import (
    COOPERATIVE,
    EAGER,
    EXACTLY_ONCE,
    ProducerConfig,
    StreamsConfig,
)
from repro.log.record import FrozenHeaders
from repro.sim.chaos import ChaosConfig, ChaosController
from repro.sim.invariants import (
    ChangelogStateEquivalence,
    CommittedOutputEquality,
    InvariantSuite,
    InvariantViolation,
    ReadCommittedIsolation,
    committed_records,
)
from repro.streams import KafkaStreams, StreamsBuilder

from tests.streams.harness import (
    Ticker,
    drain_topic,
    latest_by_key,
    make_cluster,
    stored_headers,
)

CATEGORIES = ["a", "b", "c", "d", "e"]


def make_app(cluster, protocol=EAGER, standbys=0, record_path=False):
    """The two-stage counting app. With ``record_path`` each sub-topology
    carries a :class:`Ticker`, so every task walks a scalar-only operator
    through its chunks; the committed output is the same."""
    builder = StreamsBuilder()
    stream = builder.stream("in")
    if record_path:
        stream = stream.process(Ticker)
    counts = (
        stream.map(lambda k, v: (v, 1))
        .group_by_key()
        .count(store_name="counts")
        .to_stream()
    )
    if record_path:
        counts = counts.process(Ticker)
    counts.to("out")
    return KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="chaos-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=300.0,
            rebalance_protocol=protocol,
            num_standby_replicas=standbys,
        ),
    )


def produce_workload(cluster, n=120):
    producer = Producer(cluster)
    expected = {}
    for i in range(n):
        category = CATEGORIES[i % len(CATEGORIES)]
        expected[category] = expected.get(category, 0) + 1
        producer.send("in", key=f"k{i}", value=category, timestamp=float(i * 3))
    producer.flush()
    return expected


def golden_output(n=120):
    """Committed output of a fault-free run of the same workload."""
    cluster = make_cluster(**{"in": 2, "out": 2})
    app = make_app(cluster)
    app.start(2)
    produce_workload(cluster, n)
    app.run_until_idle(max_steps=50_000)
    return committed_records(cluster, ["out"])


def drain(cluster, app):
    """Drain to quiescence, riding out dangling-transaction timeouts from
    crashed instances (the reaper is a housekeeping timer, so idle drivers
    do not jump to it — advance past it explicitly, as real time would)."""
    for _ in range(4):
        cluster.clock.advance(400.0)
        app.run_until_idle(max_steps=50_000)


def run_chaos(
    seed, golden, config=None, n=120, trace=False,
    protocol=EAGER, standbys=0, record_path=False,
):
    cluster = make_cluster(**{"in": 2, "out": 2})
    if trace:
        cluster.enable_tracing()
    app = make_app(
        cluster, protocol=protocol, standbys=standbys, record_path=record_path
    )
    app.start(2)
    produce_workload(cluster, n)

    suite = InvariantSuite()
    suite.add(ChangelogStateEquivalence().attach(app))
    suite.add(CommittedOutputEquality(golden))
    chaos = ChaosController(
        cluster,
        apps=[app],
        seed=seed,
        config=config or ChaosConfig(horizon_ms=3_000.0),
        invariants=suite,      # controller auto-adds RebalanceContinuity
    )
    app.driver.register(chaos)
    scheduled = chaos.schedule()
    assert scheduled > 0, "seed produced an empty fault timeline"
    app.run_for(chaos.config.horizon_ms)
    chaos.quiesce()
    drain(cluster, app)
    # The controller's final pass dumps a debug bundle on violation.
    chaos.final_check()
    return cluster, app, chaos, suite


@pytest.fixture(scope="module")
def golden():
    return golden_output()


def test_same_seed_same_timeline_and_output(golden):
    results = [run_chaos(seed=11, golden=golden) for _ in range(2)]
    timelines = [chaos.timeline for _, _, chaos, _ in results]
    assert timelines[0] == timelines[1], "fault timeline is not deterministic"
    outputs = [committed_records(c, ["out"]) for c, _, _, _ in results]
    assert outputs[0] == outputs[1], "committed output is not deterministic"
    assert results[0][2].faults_injected > 0


def test_different_seeds_different_timelines(golden):
    _, _, chaos_a, _ = run_chaos(seed=11, golden=golden)
    _, _, chaos_b, _ = run_chaos(seed=12, golden=golden)
    assert chaos_a.timeline != chaos_b.timeline


@pytest.mark.parametrize("trace", [False, True])
def test_every_stored_header_is_frozen_after_chaos(golden, trace):
    """Crashes, elections, truncations, restores and retried produces
    later, every header mapping of every stored batch of every replica is
    a ``FrozenHeaders``: every writer went through a producer or carried
    none. Untraced, sink slabs hold the source log's own objects; traced,
    freshly stamped dicts that ``send_columns`` freezes by copy."""
    cluster, _, chaos, _ = run_chaos(seed=11, golden=golden, trace=trace)
    assert chaos.faults_injected > 0
    headers = list(stored_headers(cluster))
    assert headers and {type(h) for h in headers} == {FrozenHeaders}


@pytest.mark.chaos
@pytest.mark.parametrize("protocol", [EAGER, COOPERATIVE])
@pytest.mark.parametrize("seed", list(range(10)))
def test_chaos_matrix_invariants_hold(seed, protocol, golden):
    """Ten seeds of full-repertoire chaos under both rebalance protocols:
    all invariants pass (including rebalance continuity), the final counts
    match the workload, and the run actually injected faults."""
    cluster, app, chaos, suite = run_chaos(
        seed=seed, golden=golden, protocol=protocol
    )
    assert chaos.faults_injected > 0
    assert suite.checks_performed > 1, "continuous checking never ran"
    final = latest_by_key(drain_topic(cluster, "out"))
    expected = {}
    for i in range(120):
        category = CATEGORIES[i % len(CATEGORIES)]
        expected[category] = expected.get(category, 0) + 1
    assert final == expected, f"seed {seed} violated exactly-once"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", list(range(10)))
def test_chaos_matrix_record_path(seed, golden):
    """The ten-seed chaos matrix over the ``Ticker`` topology (the base
    ``process_batch`` walk in each sub-topology): the committed output must
    equal the fault-free golden run of the plain topology — how records
    move never changes what is committed."""
    cluster, app, chaos, suite = run_chaos(
        seed=seed, golden=golden, record_path=True
    )
    assert chaos.faults_injected > 0
    tasks = [t for instance in app.instances for t in instance.tasks.values()]
    assert tasks and all(
        any(isinstance(p, Ticker) for p in t.processors().values()) for t in tasks
    )
    final = latest_by_key(drain_topic(cluster, "out"))
    expected = {}
    for i in range(120):
        category = CATEGORIES[i % len(CATEGORIES)]
        expected[category] = expected.get(category, 0) + 1
    assert final == expected, f"seed {seed} violated exactly-once on the Ticker topology"


@pytest.mark.chaos
def test_standby_promotion_restores_from_standby_position(golden):
    """A crashed owner's task restarts on the standby host: the restore
    starts from the standby's changelog position (nonzero), not offset 0,
    and the committed output still equals the fault-free run."""
    cluster = make_cluster(**{"in": 2, "out": 2})
    app = make_app(cluster, protocol=COOPERATIVE, standbys=1)
    app.start(2)
    produce_workload(cluster)

    restore_offsets = []

    def listener(task_id, store, s, changelog, partition, next_offset,
                 from_offset=0):
        restore_offsets.append((task_id, from_offset, next_offset))

    app.restore_listener = listener
    suite = InvariantSuite()
    suite.add(CommittedOutputEquality(golden))
    chaos = ChaosController(
        cluster,
        apps=[app],
        seed=21,
        config=ChaosConfig(horizon_ms=3_000.0, kinds=("instance_crash",)),
        invariants=suite,
    )
    app.driver.register(chaos)
    assert chaos.schedule() > 0
    app.run_for(chaos.config.horizon_ms)
    chaos.quiesce()
    drain(cluster, app)
    chaos.final_check()

    assert any("instance_crash" in desc for _, desc in chaos.timeline)
    warm = [entry for entry in restore_offsets if entry[1] > 0]
    assert warm, (
        "no restore started from a standby position: "
        f"{restore_offsets}"
    )


def test_quiesce_heals_cluster_and_instances(golden):
    cluster, app, chaos, _ = run_chaos(seed=3, golden=golden)
    assert cluster.alive_brokers() == sorted(cluster.brokers)
    assert cluster.network._rules == []
    assert app.instances, "quiesce left the app without instances"


def test_fault_metrics_exposed(golden):
    # Seed 8: its link faults land while the links are in use (a severed
    # link nobody sends on counts nothing — seed 11, since tasks send a
    # chunk's output at once).
    cluster, _, chaos, _ = run_chaos(seed=8, golden=golden)
    assert any("ack_drop" in desc or "link_fault" in desc for _, desc in chaos.timeline)
    assert cluster.network.metrics.counters().get("network.faults.injected", 0) > 0


# -- scenario-layer cells: targeted fault shapes on the chaos topology ---------------


@pytest.mark.chaos
@pytest.mark.parametrize("record_path", [False, True])
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_gray_broker_scenario_hardening_engages(seed, record_path, golden):
    """The gray-broker scenario on a latency-charging cluster: the EWMA
    detector demotes the slow broker, fetches hedge to a replica, and the
    committed output still equals the fault-free golden run — on the
    plain and on the ``Ticker`` topology."""
    from repro.broker.cluster import Cluster
    from repro.sim.scenarios import ScenarioHarness

    def build(with_faults):
        cluster = Cluster(num_brokers=3, seed=5)   # latency charged
        cluster.create_topic("in", 2)
        cluster.create_topic("out", 2)
        app = make_app(cluster, record_path=record_path and with_faults)
        app.config.hedged_fetch = True
        app.start(2)
        return cluster, app

    def slice_producer(cluster):
        producer = Producer(cluster)

        def produce(index):
            for i in range(index * 12, (index + 1) * 12):
                producer.send(
                    "in",
                    key=f"k{i}",
                    value=CATEGORIES[i % len(CATEGORIES)],
                    timestamp=float(i * 3),
                )
            producer.flush()

        return produce

    gold_cluster, gold_app = build(with_faults=False)
    gold_produce = slice_producer(gold_cluster)
    for index in range(10):
        gold_produce(index)
        gold_app.run_for(110.0)
    gold_app.run_until_idle(max_steps=50_000)
    gray_golden = committed_records(gold_cluster, ["out"])

    cluster, app = build(with_faults=True)
    result = ScenarioHarness(
        cluster,
        app,
        "gray_broker",
        seed=seed,
        invariants=InvariantSuite(),
        horizon_ms=2_000.0,
    ).run(
        golden_invariant=CommittedOutputEquality(gray_golden),
        workload=slice_producer(cluster),
        workload_slices=10,
    )
    assert result.converged
    assert result.faults_injected == 2
    assert cluster.metrics.counter("client.gray_demotions").value > 0
    assert cluster.metrics.counter("consumer.hedged_fetches").value > 0
    assert "gray_demotion" in result.recovery["detected_by"]


@pytest.mark.chaos
@pytest.mark.parametrize(
    "scenario", ["group_coordinator_kill", "txn_coordinator_kill"]
)
def test_coordinator_kill_scenarios_converge(scenario, golden):
    """Killing the broker hosting the group/txn coordinator partition:
    clients ride the failover via retries and the committed output still
    equals the fault-free run."""
    from repro.sim.scenarios import ScenarioHarness

    cluster = make_cluster(**{"in": 2, "out": 2})
    app = make_app(cluster)
    app.start(2)
    produce_workload(cluster)
    result = ScenarioHarness(
        cluster,
        app,
        scenario,
        seed=11,
        invariants=InvariantSuite(),
        horizon_ms=2_000.0,
    ).run(golden_invariant=CommittedOutputEquality(golden))
    assert result.converged
    assert result.faults_injected == 1
    final = latest_by_key(drain_topic(cluster, "out"))
    expected = {}
    for i in range(120):
        category = CATEGORIES[i % len(CATEGORIES)]
        expected[category] = expected.get(category, 0) + 1
    assert final == expected


# -- regression: the checkers must catch deliberately broken safety ------------------


def test_output_equality_catches_duplicates_without_idempotence():
    """Disable idempotence, lose acks: the retry duplicates the write and
    CommittedOutputEquality must say so."""
    def produce(cluster, idempotent, inject):
        producer = Producer(
            cluster,
            ProducerConfig(enable_idempotence=idempotent, acks="all"),
        )
        for i in range(10):
            producer.send("t", key=f"k{i}", value=i)
            if i == 4 and inject:
                from repro.sim.failures import FailureInjector

                FailureInjector(cluster).drop_next_produce_ack(count=1)
        producer.flush()

    golden_cluster = make_cluster(t=1)
    produce(golden_cluster, idempotent=True, inject=False)
    golden = committed_records(golden_cluster, ["t"])

    cluster = make_cluster(t=1)
    produce(cluster, idempotent=False, inject=True)
    checker = CommittedOutputEquality(golden)
    with pytest.raises(InvariantViolation, match="unexpected"):
        checker.check(cluster, final=True)

    # Control: with idempotence on, the same lost ack is deduplicated.
    cluster = make_cluster(t=1)
    produce(cluster, idempotent=True, inject=True)
    CommittedOutputEquality(golden).check(cluster, final=True)


def test_read_committed_checker_catches_aborted_data():
    """Feed the checker records fetched with the isolation filter off
    (read_uncommitted) — it must flag the aborted transaction's records."""
    cluster = make_cluster(t=1)
    producer = Producer(cluster, ProducerConfig(transactional_id="txn-1"))
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("t", key="doomed", value=1)
    producer.abort_transaction()

    tp = cluster.partitions_for("t")[0]
    log = cluster.partition_state(tp).leader_log()
    from repro.broker.fetch import fetch

    unfiltered = fetch(
        log, 0, max_records=1000, isolation_level="read_uncommitted"
    )
    aborted_data = [r for r in unfiltered.records if not r.is_control]
    assert aborted_data, "aborted records should be visible read_uncommitted"
    with pytest.raises(InvariantViolation, match="aborted"):
        ReadCommittedIsolation.verify_records(log, aborted_data)

    # Control: the records a real read-committed fetch returns pass.
    filtered = fetch(log, 0, max_records=1000, isolation_level="read_committed")
    ReadCommittedIsolation.verify_records(log, filtered.records)


def test_read_committed_checker_catches_open_txn_data():
    cluster = make_cluster(t=1)
    producer = Producer(cluster, ProducerConfig(transactional_id="txn-2"))
    producer.init_transactions()
    producer.begin_transaction()
    producer.send("t", key="open", value=1)
    producer.flush()

    tp = cluster.partitions_for("t")[0]
    log = cluster.partition_state(tp).leader_log()
    from repro.broker.fetch import fetch

    unfiltered = fetch(
        log, 0, max_records=1000, isolation_level="read_uncommitted"
    )
    open_data = [r for r in unfiltered.records if not r.is_control]
    assert open_data
    with pytest.raises(InvariantViolation, match="open-transaction"):
        ReadCommittedIsolation.verify_records(log, open_data)

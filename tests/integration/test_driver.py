"""Integration tests for the unified discrete-event driver.

Covers the properties the refactor must preserve or provide:

* determinism — two driver runs of a fault-injected speculative pipeline
  on the same seed produce identical clock traces, RPC counts, store
  contents, and sink outputs;
* seed equivalence — the driver-based ``run_until_idle`` yields the same
  sink outputs the old step-loop (step / commit / tick 1 ms) produced;
* co-scheduling — one Driver can interleave two Streams apps and the
  checkpoint baseline on one cluster and one timeline;
* session expiry — a silently crashed instance is evicted by its session
  timer and its tasks migrate, while live members survive big time jumps.
"""

from repro.barriers.engine import BarrierEngine
from repro.barriers.object_store import ObjectStore
from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.sim.failures import FailureInjector
from repro.sim.scheduler import Driver
from repro.streams import KafkaStreams, StreamsBuilder

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


def _record_tuples(records):
    return [(r.key, r.value, r.timestamp) for r in records]


# -- determinism -------------------------------------------------------------------


def _speculative_pipeline_run():
    """One full run of a fault-injected speculative two-app pipeline,
    driven end to end by a single Driver. Returns everything observable."""
    cluster = Cluster(num_brokers=3, seed=7)
    for topic in ("in", "mid", "out"):
        cluster.create_topic(topic, 1)

    up_builder = StreamsBuilder()
    up_builder.stream("in").map_values(lambda v: v * 10).to("mid")
    up = KafkaStreams(
        up_builder.build(),
        cluster,
        StreamsConfig(
            application_id="up",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=200.0,
            speculative=True,
        ),
    )
    down_builder = StreamsBuilder()
    down_builder.stream("mid").group_by_key().count("counts").to_stream().to("out")
    down = KafkaStreams(
        down_builder.build(),
        cluster,
        StreamsConfig(
            application_id="down",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=50.0,
            speculative=True,
        ),
    )
    up.start(1)
    down.start(1)

    injector = FailureInjector(cluster)
    driver = Driver(cluster.clock)
    driver.register(up)
    driver.register(down)

    producer = Producer(cluster)
    clock_trace = []
    for i in range(30):
        if i == 10:
            injector.drop_next_produce_ack()
        producer.send("in", key=f"k{i % 3}", value=1, timestamp=float(i))
        producer.flush()
        driver.poll_all()
        clock_trace.append(cluster.clock.now)
    driver.run_until_idle()
    clock_trace.append(cluster.clock.now)

    return {
        "clock_trace": clock_trace,
        "rpc_counts": dict(cluster.network.rpc_counts),
        "store": dict(down.store_contents("counts")),
        "outputs": _record_tuples(drain_topic(cluster, "out")),
        "driver_stats": driver.stats(),
    }


def test_driver_runs_are_deterministic():
    first = _speculative_pipeline_run()
    second = _speculative_pipeline_run()
    assert first["clock_trace"] == second["clock_trace"]
    assert first["rpc_counts"] == second["rpc_counts"]
    assert first["store"] == second["store"]
    assert first["outputs"] == second["outputs"]
    assert first["driver_stats"] == second["driver_stats"]
    # The run actually did something.
    assert first["store"] == {"k0": 10, "k1": 10, "k2": 10}


# -- seed equivalence -------------------------------------------------------------


def _reference_run_until_idle(app, cluster, max_steps=10_000):
    """The pre-driver drive loop: step; when idle, commit and creep the
    clock 1 ms; stop after two consecutive idle cycles."""
    idle = 0
    for _ in range(max_steps):
        if app.step():
            idle = 0
            continue
        app.commit_all()
        cluster.clock.advance(1.0)
        if app.step():
            idle = 0
            continue
        idle += 1
        if idle >= 2:
            break
    app.commit_all()


def _quickstart_topology():
    builder = StreamsBuilder()
    (
        builder.stream("events")
        .filter(lambda key, value: value >= 0)
        .map(lambda key, value: (key, value * 2))
        .group_by_key()
        .count("counts")
        .to_stream()
        .to("out")
    )
    return builder.build()


def _revision_topology():
    from repro.streams import TimeWindows

    builder = StreamsBuilder()
    (
        builder.stream("events")
        .group_by_key()
        .windowed_by(TimeWindows.of(5_000.0).grace(10_000.0))
        .count()
        .to_stream()
        .to("out")
    )
    return builder.build()


def _run_app(topology_fn, produce_fn, use_driver):
    cluster = make_cluster(events=2, out=2)
    app = KafkaStreams(
        topology_fn(),
        cluster,
        StreamsConfig(
            application_id="equiv",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=100.0,
        ),
    )
    app.start(1)
    produce_fn(cluster, app)
    if use_driver:
        app.run_until_idle()
    else:
        _reference_run_until_idle(app, cluster)
    # Give the last transaction markers the same landing window in both
    # modes before draining.
    cluster.clock.advance(50.0)
    return _record_tuples(drain_topic(cluster, "out"))


def _produce_quickstart(cluster, app):
    producer = Producer(cluster)
    for i in range(40):
        producer.send("events", key=f"k{i % 5}", value=i - 2, timestamp=float(i))
    producer.flush()


def _produce_revisions(cluster, app):
    producer = Producer(cluster)
    # The paper's Figure 6 sequence: in-order, new-window, out-of-order,
    # grace-expiring, too-late.
    for ts in (12_000.0, 16_000.0, 14_000.0, 23_000.0, 12_000.0):
        producer.send("events", key="k", value=1, timestamp=ts)
        producer.flush()
        app.step()


def test_driver_matches_step_loop_on_quickstart_topology():
    reference = _run_app(_quickstart_topology, _produce_quickstart, use_driver=False)
    driven = _run_app(_quickstart_topology, _produce_quickstart, use_driver=True)
    assert driven == reference
    assert driven, "the quickstart topology must emit counts"


def test_driver_matches_step_loop_on_revision_topology():
    reference = _run_app(_revision_topology, _produce_revisions, use_driver=False)
    driven = _run_app(_revision_topology, _produce_revisions, use_driver=True)
    assert driven == reference
    assert driven, "the revision topology must emit windowed counts"


# -- co-scheduling ----------------------------------------------------------------


def test_one_driver_coschedules_two_streams_apps_and_barriers():
    cluster = make_cluster(
        **{"raw": 1, "streams-out": 1, "barrier-out": 1, "doubled": 1}
    )

    builder = StreamsBuilder()
    builder.stream("raw").group_by_key().count("totals").to_stream().to(
        "streams-out"
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="co-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=100.0,
        ),
    )
    app.start(1)

    engine = BarrierEngine(
        cluster,
        source_topic="raw",
        sink_topic="barrier-out",
        reduce_fn=lambda key, value, state: (state or 0) + value,
        object_store=ObjectStore(cluster.clock, put_latency_ms=5.0),
        checkpoint_interval_ms=200.0,
    )

    doubler = StreamsBuilder()
    doubler.stream("raw").map_values(lambda v: v * 2).to("doubled")
    doubling_app = KafkaStreams(
        doubler.build(),
        cluster,
        StreamsConfig(
            application_id="co-doubler",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=100.0,
        ),
    )
    doubling_app.start(1)

    driver = Driver(cluster.clock)
    driver.register(app)
    driver.register(engine)
    driver.register(doubling_app)

    producer = Producer(cluster)
    for i in range(12):
        producer.send("raw", key=f"k{i % 3}", value=1, timestamp=float(i))
    producer.flush()
    driver.run_until_idle()
    cluster.clock.advance(50.0)

    # All three engines consumed the same input on one timeline.
    assert app.store_contents("totals") == {"k0": 4, "k1": 4, "k2": 4}
    assert latest_by_key(drain_topic(cluster, "barrier-out")) == {
        "k0": 4,
        "k1": 4,
        "k2": 4,
    }
    doubled = drain_topic(cluster, "doubled")
    assert len(doubled) == 12
    assert all(r.value == 2 for r in doubled)


# -- session expiry ---------------------------------------------------------------


def test_silently_crashed_instance_is_evicted_and_tasks_migrate():
    cluster = make_cluster(**{"in": 2, "out": 2})
    builder = StreamsBuilder()
    builder.stream("in").group_by_key().count("c").to_stream().to("out")
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="sess",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=50.0,
            session_timeout_ms=1_000.0,
            transaction_timeout_ms=2_000.0,
        ),
    )
    app.start(2)
    producer = Producer(cluster)
    for i in range(10):
        producer.send("in", key=f"k{i % 4}", value=1, timestamp=float(i))
    producer.flush()
    app.run_until_idle()

    victim, survivor = app.instances
    victim_tasks = set(victim.tasks)
    assert victim_tasks, "both instances should own tasks"
    # Silent crash: no leave_group — only the session timer can notice.
    victim.crash()
    app.instances.remove(victim)
    cluster.clock.advance(3_000.0)

    # The survivor's next polls heartbeat, drain the eviction, rebalance,
    # and take the dead instance's tasks over.
    for i in range(10, 16):
        producer.send("in", key=f"k{i % 4}", value=1, timestamp=float(i))
    producer.flush()
    app.run_until_idle()
    cluster.clock.advance(50.0)

    assert set(survivor.tasks) >= victim_tasks
    assert app.store_contents("c") == {"k0": 4, "k1": 4, "k2": 4, "k3": 4}


def test_live_member_survives_large_time_jumps():
    cluster = make_cluster(**{"in": 1, "out": 1})
    builder = StreamsBuilder()
    builder.stream("in").map_values(lambda v: v).to("out")
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="alive",
            processing_guarantee=EXACTLY_ONCE,
            session_timeout_ms=1_000.0,
        ),
    )
    app.start(1)
    coordinator = cluster.group_coordinator
    assert len(coordinator.members("alive")) == 1
    # Jump far past the session timeout without a single poll: the
    # liveness probe models the background heartbeat thread, so a healthy
    # (merely idle) instance must not be evicted.
    cluster.clock.advance(60_000.0)
    assert coordinator.expire_sessions() == []
    assert len(coordinator.members("alive")) == 1

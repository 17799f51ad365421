"""Declarative scenario layer: validation, grid, and full harness cells."""

import pytest

from repro.barriers.engine import BarrierEngine
from repro.barriers.object_store import ObjectStore
from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.obs.recovery import NO_RECOVERY
from repro.sim.chaos import ALL_KINDS, ChaosConfig, ChaosController, validate_kinds
from repro.sim.invariants import (
    CommittedOutputEquality,
    InvariantSuite,
    committed_records,
)
from repro.sim.scenarios import (
    SCENARIOS,
    BarrierAppAdapter,
    CellSpec,
    Scenario,
    ScenarioHarness,
    grid,
    resolve_scenario,
)
from repro.streams import KafkaStreams, StreamsBuilder


# -- config validation (satellite: ChaosConfig mirrors Network.add_fault) ----


class TestChaosConfigValidation:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ChaosConfig(kinds=("broker_crash", "broker_tickle"))

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="at least one fault kind"):
            ChaosConfig(kinds=())

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="mean_fault_interval_ms"):
            ChaosConfig(mean_fault_interval_ms=0.0)
        with pytest.raises(ValueError, match="horizon_ms"):
            ChaosConfig(horizon_ms=-1.0)
        with pytest.raises(ValueError, match="broker recovery"):
            ChaosConfig(broker_recovery_min_ms=500.0, broker_recovery_max_ms=100.0)
        with pytest.raises(ValueError, match="max_dead_brokers"):
            ChaosConfig(max_dead_brokers=0)

    def test_kind_weights_must_match_repertoire(self):
        with pytest.raises(ValueError, match="repertoire"):
            ChaosConfig(
                kinds=("broker_crash",), kind_weights={"instance_crash": 2.0}
            )
        with pytest.raises(ValueError, match="> 0"):
            ChaosConfig(
                kinds=("broker_crash",), kind_weights={"broker_crash": 0.0}
            )

    def test_validate_kinds_passthrough(self):
        assert validate_kinds(ALL_KINDS) == ALL_KINDS

    def test_weighted_schedule_draws_only_weighted_kinds(self):
        cluster = Cluster(num_brokers=3, seed=5)
        chaos = ChaosController(
            cluster,
            apps=[],
            seed=13,
            config=ChaosConfig(
                mean_fault_interval_ms=50.0,
                horizon_ms=2_000.0,
                kinds=("broker_crash", "gray_broker"),
                # Effectively always gray: weight ratio 1e9.
                kind_weights={"broker_crash": 1e-9, "gray_broker": 1.0},
            ),
        )
        count = chaos.schedule()
        assert count > 10
        cluster.clock.advance(2_000.0)
        assert set(chaos._pending) == {"gray_broker"}


# -- scenario dataclass ------------------------------------------------------


class TestScenario:
    def test_catalog_is_valid(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.script
            # Overrides must be real ChaosConfig fields.
            ChaosConfig(kinds=scenario.kinds(), **scenario.config_overrides)

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError, match="empty script"):
            Scenario("x", "empty", ())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Scenario("x", "bad kind", ((0.5, "broker_melt"),))

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            Scenario("x", "late", ((1.0, "broker_crash"),))

    def test_events_scale_with_horizon(self):
        scenario = Scenario(
            "x", "two", ((0.25, "broker_crash"), (0.5, "gray_broker"))
        )
        assert scenario.events_for(2_000.0) == [
            (500.0, "broker_crash"),
            (1_000.0, "gray_broker"),
        ]
        assert scenario.kinds() == ("broker_crash", "gray_broker")

    def test_resolve_by_name_and_value(self):
        by_name = resolve_scenario("instance_loss")
        assert by_name is SCENARIOS["instance_loss"]
        assert resolve_scenario(by_name) is by_name
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("power_outage")


class TestGrid:
    def test_full_cartesian_sweep(self):
        cells = list(
            grid(
                scenarios=["instance_loss", "gray_broker"],
                commit_intervals=(20.0,),
                state_sizes=(8, 40),
                seeds=(7, 11),
            )
        )
        assert len(cells) == 2 * 1 * 2 * 2
        assert cells[0] == CellSpec("instance_loss", 20.0, 8, 7)
        # Deterministic iteration order: scenario-major, seed-minor.
        assert [c.seed for c in cells[:2]] == [7, 11]

    def test_grid_validates_scenarios_eagerly(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            next(grid(scenarios=["nope"]))


# -- full harness cells ------------------------------------------------------


def make_streams_cell():
    cluster = Cluster(num_brokers=3, seed=11)
    cluster.network.charge_latency = False
    cluster.create_topic("in", 2)
    cluster.create_topic("out", 2)
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .group_by_key()
        .reduce(lambda agg, v: agg if agg >= v else v, store_name="maxes")
        .to_stream()
        .to("out")
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="scenario-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=300.0,
        ),
    )
    app.start(2)
    return cluster, app


def produce_all(cluster, n=60, keys=6):
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", key=f"k{i % keys}", value=i, timestamp=float(i))
    producer.flush()


def streams_golden():
    cluster, app = make_streams_cell()
    produce_all(cluster)
    app.run_until_idle(max_steps=50_000)
    return committed_records(cluster, ["out"])


class TestScenarioHarness:
    def test_instance_loss_cell_decomposes_recovery(self):
        golden = streams_golden()
        cluster, app = make_streams_cell()
        produce_all(cluster)
        harness = ScenarioHarness(
            cluster,
            app,
            "instance_loss",
            seed=7,
            invariants=InvariantSuite(),
            horizon_ms=1_000.0,
        )
        result = harness.run(golden_invariant=CommittedOutputEquality(golden))
        assert result.converged
        assert result.faults_injected == 1
        assert result.recovery is not None
        assert result.recovery["gap_ms"] > 0
        # Phases telescope to the observed gap (verified inside run too).
        phase_sum = sum(
            result.recovery[f"{p}_ms"]
            for p in ("detect", "rebalance", "restore", "catchup")
        )
        assert phase_sum == pytest.approx(result.recovery["gap_ms"], rel=0.05)
        # The replacement instance is part of the app again.
        assert len(app.instances) == 2

    def test_teardown_leaves_nothing_armed(self):
        golden = streams_golden()
        cluster, app = make_streams_cell()
        produce_all(cluster)
        harness = ScenarioHarness(
            cluster,
            app,
            "single_broker_crash",
            seed=11,
            invariants=InvariantSuite(),
            horizon_ms=800.0,
        )
        harness.run(golden_invariant=CommittedOutputEquality(golden))
        assert cluster.recovery is NO_RECOVERY
        assert harness.chaos not in app.driver._actors
        assert all(cluster.is_broker_alive(b) for b in range(3))
        # The same process can run the next cell immediately.
        cluster2, app2 = make_streams_cell()
        produce_all(cluster2)
        result2 = ScenarioHarness(
            cluster2,
            app2,
            "group_coordinator_kill",
            seed=23,
            invariants=InvariantSuite(),
            horizon_ms=800.0,
        ).run(golden_invariant=CommittedOutputEquality(golden))
        assert result2.converged

    def test_rearming_rejected(self):
        cluster, app = make_streams_cell()
        harness = ScenarioHarness(
            cluster, app, "instance_loss", seed=7, horizon_ms=500.0
        )
        harness.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            harness.arm()
        harness.teardown()

    def test_workload_paced_to_last_fault(self):
        golden = streams_golden()
        cluster, app = make_streams_cell()
        produced = []

        def workload(index):
            produced.append((index, cluster.clock.now))
            producer = Producer(cluster)
            for i in range(index * 6, (index + 1) * 6):
                producer.send(
                    "in", key=f"k{i % 6}", value=i, timestamp=float(i)
                )
            producer.flush()

        harness = ScenarioHarness(
            cluster,
            app,
            "instance_loss",  # fault at 0.3 * horizon
            seed=7,
            invariants=InvariantSuite(),
            horizon_ms=1_000.0,
        )
        result = harness.run(
            golden_invariant=CommittedOutputEquality(golden),
            workload=workload,
            workload_slices=10,
        )
        assert result.converged
        assert [i for i, _ in produced] == list(range(10))
        # All production happens inside [0, last_fault]: 0.3 * 1000ms.
        assert produced[-1][1] <= 300.0 + 1e-9


class TestBarrierAdapter:
    def test_instance_loss_recovers_from_checkpoint(self):
        def build():
            cluster = Cluster(num_brokers=3, seed=11)
            cluster.network.charge_latency = False
            cluster.create_topic("in", 2)
            cluster.create_topic("out", 2)
            engine = BarrierEngine(
                cluster,
                source_topic="in",
                sink_topic="out",
                reduce_fn=lambda key, value, state: (
                    value if state is None else max(state, value)
                ),
                object_store=ObjectStore(cluster.clock, put_latency_ms=1.0),
                checkpoint_interval_ms=50.0,
            )
            return cluster, BarrierAppAdapter(engine)

        cluster, adapter = build()
        produce_all(cluster)
        adapter.run_until_idle()
        golden = committed_records(cluster, ["out"])

        cluster, adapter = build()
        produce_all(cluster)
        harness = ScenarioHarness(
            cluster,
            adapter,
            "instance_loss",
            seed=7,
            invariants=InvariantSuite(),
            horizon_ms=1_000.0,
        )
        result = harness.run(golden_invariant=CommittedOutputEquality(golden))
        assert result.converged
        assert result.faults_injected == 1
        assert adapter.restarts == 1
        assert result.recovery is not None
        # The supervisor restart restored checkpointed state.
        assert result.recovery["restored_records"] > 0

    def test_adapter_surface(self):
        cluster = Cluster(num_brokers=3, seed=11)
        cluster.create_topic("in", 1)
        cluster.create_topic("out", 1)
        engine = BarrierEngine(
            cluster,
            source_topic="in",
            sink_topic="out",
            reduce_fn=lambda key, value, state: (state or 0) + value,
            job_name="job-x",
        )
        adapter = BarrierAppAdapter(engine)
        assert adapter.config.application_id == "job-x"
        assert adapter.all_source_topics == {"in"}
        assert adapter.instances == [adapter]
        assert adapter.client_ids() == ["job-x-source", "job-x-sink"]
        assert adapter.alive
        adapter.crash_instance(adapter)
        assert not adapter.alive
        assert adapter.add_instance() is adapter
        assert adapter.alive and adapter.restarts == 1

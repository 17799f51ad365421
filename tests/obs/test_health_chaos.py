"""Health monitoring under chaos: the ISSUE's acceptance matrix.

Ten seeded cells of disruptive scenarios with the SLO engine live:

* every injected fault window overlaps at least one fired alert,
* nothing fires outside the fault windows (plus detection slack),
* a fault-free control run fires zero alerts,
* the lag and frontier gauges equal ground truth recomputed straight
  from the partition logs at every tick, and
* same-seed runs serialize byte-identical health reports.
"""

import pytest

from repro.clients.producer import Producer
from repro.config import (
    EXACTLY_ONCE,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    StreamsConfig,
)
from repro.obs.health import HealthMonitor, default_slos
from repro.obs.report import health_report, report_json
from repro.obs.watermarks import COMPLETE, partition_frontier
from repro.sim.invariants import InvariantSuite
from repro.sim.scenarios import ScenarioHarness
from repro.streams import KafkaStreams, StreamsBuilder

from tests.streams.harness import make_cluster

#: The matrix rotates over disruptive scenario shapes; ten seeds spread
#: two per scenario. Coverage rides the recovery-gap SLO: every chaos
#: kind notes its fault into the RecoveryTracker, and a no-golden cell
#: stamps recovery once the last fault is ~1s in the past — so a 400ms
#: gap bound breaches deterministically inside every fault window, even
#: for faults a latency-free logical cluster cannot surface as RTT.
SCENARIO_RING = (
    "single_broker_crash",
    "instance_loss",
    "group_coordinator_kill",
    "txn_coordinator_kill",
    "severed_link",
)

#: Detection slack: a warn needs ~150ms of sustained breach on top of
#: the 400ms gap bound, and ticks ride convergence rounds (~100ms).
SLACK_MS = 1_200.0


def tuned_slos():
    return default_slos(max_recovery_gap_ms=400.0)


class CheckedHealthMonitor(HealthMonitor):
    """A HealthMonitor that audits itself at every tick.

    After the gauges publish, recompute committed lag and the
    completeness frontier straight from the partition logs and the
    group coordinator — no WatermarkTracker, no memos — and compare
    with what the monitor just published. Runs inside ``tick()`` so the
    comparison sees the exact instant the gauges describe, before any
    other actor moves."""

    checks = 0

    def tick(self) -> None:
        super().tick()
        for app in self.apps:
            self._verify_app(app)
        self.checks += 1

    def _verify_app(self, app) -> None:
        cluster = self.cluster
        metrics = cluster.metrics
        app_id = app.config.application_id
        isolation = (
            READ_COMMITTED if app.config.eos_enabled else READ_UNCOMMITTED
        )
        inputs = [
            tp
            for topic in sorted(app.all_source_topics)
            for tp in cluster.partitions_for(topic)
        ]
        committed = cluster.group_coordinator.fetch_committed(app_id, inputs)
        frontier = COMPLETE
        for tp in inputs:
            try:
                log = cluster.partition_state(tp).leader_log()
                end = cluster.end_offset(tp, isolation)
            except Exception:
                # Leaderless mid-fault: the tracker skipped it too (its
                # gauge carries the last value forward).
                continue
            offset = committed.get(tp)
            base = (
                log.log_start_offset
                if offset is None
                else max(offset, log.log_start_offset)
            )
            truth = max(0, end - base)
            published = metrics.gauge(
                "streams.lag", app=app_id, topic=tp.topic, partition=tp.partition
            ).value
            assert published == truth, (
                f"lag gauge for {tp} reads {published}, ground truth {truth} "
                f"at t={cluster.clock.now}"
            )
            frontier = min(frontier, partition_frontier(log, offset, isolation))
        published = metrics.gauge("streams.frontier", app=app_id).value
        assert published == frontier, (
            f"frontier gauge reads {published}, ground truth {frontier} "
            f"at t={cluster.clock.now}"
        )


def make_app(cluster):
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .group_by_key()
        .reduce(lambda agg, v: agg if agg >= v else v, store_name="maxes")
        .to_stream()
        .to("out")
    )
    return KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="health-chaos-app",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=300.0,
        ),
    )


def slice_producer(cluster):
    producer = Producer(cluster)

    def produce(index):
        for i in range(index * 12, (index + 1) * 12):
            producer.send("in", key=f"k{i % 6}", value=i, timestamp=float(i))
        producer.flush()

    return produce


def run_cell(seed, scenario):
    cluster = make_cluster(**{"in": 2, "out": 2})
    app = make_app(cluster)
    app.start(2)
    monitor = CheckedHealthMonitor(
        cluster, apps=[app], slos=tuned_slos(), interval_ms=20.0
    )
    harness = ScenarioHarness(
        cluster,
        app,
        scenario,
        seed=seed,
        invariants=InvariantSuite(),
        horizon_ms=2_000.0,
        health=monitor,
    )
    result = harness.run(
        workload=slice_producer(cluster), workload_slices=10
    )
    # A healthy tail after convergence: the breached samples age out of
    # the warn window (720ms) and every alert resolves.
    for _ in range(20):
        cluster.clock.advance(50.0)
        monitor.tick()
    app.close()
    return cluster, monitor, harness, result


@pytest.mark.chaos
@pytest.mark.parametrize("seed", list(range(10)))
def test_health_matrix_alert_coverage(seed):
    scenario = SCENARIO_RING[seed % len(SCENARIO_RING)]
    cluster, monitor, harness, result = run_cell(seed, scenario)
    assert result.converged
    assert harness.chaos.faults_injected > 0
    assert monitor.ticks > 0
    assert monitor.checks == monitor.ticks, "a tick escaped the audit"
    windows = [(ts, ts, desc) for ts, desc in harness.chaos.timeline]
    fired = monitor.alerts
    assert fired, f"{scenario} seed {seed}: chaos fired no alert at all"
    assert monitor.uncovered_windows(windows, slack_ms=SLACK_MS) == [], (
        f"{scenario} seed {seed}: fault windows without any alert"
    )
    assert monitor.unexpected_alerts(windows, slack_ms=SLACK_MS) == [], (
        f"{scenario} seed {seed}: alert outside every fault window"
    )
    # The recovery-gap backstop is what guarantees coverage.
    assert any(a.slo == "recovery-gap" for a in fired)
    # Everything resolves once the cell converges: no alert stays stuck.
    assert not any(alert.active for alert in fired)


@pytest.mark.chaos
def test_fault_free_control_fires_no_alerts():
    cluster = make_cluster(**{"in": 2, "out": 2})
    app = make_app(cluster)
    app.start(2)
    monitor = CheckedHealthMonitor(
        cluster, apps=[app], slos=tuned_slos(), interval_ms=20.0
    ).install()
    app.driver.register(monitor)
    produce = slice_producer(cluster)
    for index in range(10):
        produce(index)
        app.run_for(100.0)
    app.run_until_idle(max_steps=50_000)
    cluster.clock.advance(100.0)
    app.run_until_idle(max_steps=50_000)
    monitor.tick()
    assert monitor.ticks > 0 and monitor.checks == monitor.ticks
    assert monitor.alerts == [], "a fault-free run must stay silent"
    app.close()
    monitor.uninstall()


@pytest.mark.chaos
def test_same_seed_reports_are_byte_identical():
    blobs = []
    for _ in range(2):
        _, monitor, harness, _ = run_cell(3, "single_broker_crash")
        report = health_report(
            monitor, label="cell", fault_timeline=harness.chaos.timeline
        )
        blobs.append(report_json(report))
    assert blobs[0] == blobs[1], "same seed must serialize byte-identically"
    _, monitor, harness, _ = run_cell(4, "single_broker_crash")
    other = report_json(
        health_report(monitor, label="cell", fault_timeline=harness.chaos.timeline)
    )
    assert other != blobs[0], "different seeds must not collide"

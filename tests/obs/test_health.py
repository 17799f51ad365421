"""SLO engine: burn-rate math, alert lifecycle, and the alert regressions."""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.config import ConsumerConfig
from repro.obs.health import (
    DEFAULT_WINDOWS,
    PAGE,
    WARN,
    Alert,
    BurnRateWindow,
    HealthMonitor,
    SLO,
    default_slos,
)
from repro.sim.failures import FailureInjector


class TestValidation:
    def test_burn_window_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            BurnRateWindow("sev1", factor=2.0, long_ms=100.0, short_ms=50.0)

    def test_burn_window_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            BurnRateWindow(PAGE, factor=0.0, long_ms=100.0, short_ms=50.0)

    def test_burn_window_rejects_inverted_windows(self):
        with pytest.raises(ValueError):
            BurnRateWindow(PAGE, factor=2.0, long_ms=50.0, short_ms=100.0)

    def test_slo_rejects_bad_comparison(self):
        with pytest.raises(ValueError):
            SLO("s", indicator="x", threshold=1.0, comparison="gt")

    def test_slo_rejects_objective_out_of_range(self):
        with pytest.raises(ValueError):
            SLO("s", indicator="x", threshold=1.0, objective=1.0)
        with pytest.raises(ValueError):
            SLO("s", indicator="x", threshold=1.0, objective=0.0)

    def test_slo_requires_windows(self):
        with pytest.raises(ValueError):
            SLO("s", indicator="x", threshold=1.0, windows=())

    def test_monitor_rejects_bad_interval(self):
        cluster = Cluster(num_brokers=1, seed=7)
        with pytest.raises(ValueError):
            HealthMonitor(cluster, interval_ms=0.0)

    def test_monitor_rejects_duplicate_slo_names(self):
        cluster = Cluster(num_brokers=1, seed=7)
        slos = (
            SLO("dup", indicator="a", threshold=1.0),
            SLO("dup", indicator="b", threshold=1.0),
        )
        with pytest.raises(ValueError):
            HealthMonitor(cluster, slos=slos)

    def test_breached_semantics(self):
        le = SLO("le", indicator="x", threshold=2.0)
        assert not le.breached(2.0)
        assert le.breached(2.1)
        ge = SLO("ge", indicator="x", threshold=2.0, comparison="ge")
        assert not ge.breached(2.0)
        assert ge.breached(1.9)
        assert le.budget == pytest.approx(0.1)

    def test_default_slos_cover_the_five_indicators(self):
        slos = default_slos()
        assert {s.indicator for s in slos} == {
            "frontier_stall_ms",
            "max_partition_lag",
            "max_fetch_rtt_ms",
            "strong_read_failure_ratio",
            "recovery_gap_ms",
        }
        assert all(s.windows == DEFAULT_WINDOWS for s in slos)


class TestAlertOverlap:
    def test_overlap_and_slack(self):
        alert = Alert(slo="s", severity=PAGE, fired_at=700.0, resolved_at=900.0)
        assert alert.overlaps(600.0, 800.0)
        assert not alert.overlaps(100.0, 300.0)
        # Slack extends the window end: detection latency forgiveness.
        assert not alert.overlaps(100.0, 650.0)
        assert alert.overlaps(100.0, 650.0, slack_ms=100.0)
        # Still-active alerts extend to infinity.
        active = Alert(slo="s", severity=WARN, fired_at=700.0)
        assert active.overlaps(800.0, 900.0)

    def test_unexpected_and_uncovered_helpers(self):
        cluster = Cluster(num_brokers=1, seed=7)
        monitor = HealthMonitor(cluster)
        covered = Alert(slo="a", severity=PAGE, fired_at=300.0, resolved_at=400.0)
        stray = Alert(slo="b", severity=WARN, fired_at=5_000.0, resolved_at=5_100.0)
        monitor.alerts.extend([covered, stray])
        windows = [(250.0, 450.0, "crash"), (2_000.0, 2_100.0, "gray")]
        assert monitor.unexpected_alerts(windows) == [stray]
        assert monitor.uncovered_windows(windows) == [(2_000.0, 2_100.0, "gray")]
        assert monitor.alerts == [covered, stray]


def synthetic_monitor(slos, seed=7):
    cluster = Cluster(num_brokers=1, seed=seed)
    cluster.network.charge_latency = False
    monitor = HealthMonitor(cluster, apps=[], slos=slos, interval_ms=20.0)
    return cluster, monitor


def drive(cluster, monitor, indicator, values):
    """One tick per value: set the indicator gauge, advance 20ms, tick."""
    gauge = cluster.metrics.gauge("health.indicator", indicator=indicator)
    for value in values:
        gauge.set(value)
        cluster.clock.advance(20.0)
        monitor.tick()


class TestBurnRateAlerting:
    SLO_SET = (SLO("latency", indicator="lat_ms", threshold=10.0),)

    def test_quiet_indicator_never_alerts(self):
        cluster, monitor = synthetic_monitor(self.SLO_SET)
        drive(cluster, monitor, "lat_ms", [1.0] * 60)
        assert monitor.alerts == []
        assert not any(alert.active for alert in monitor.alerts)
        assert all(s["status"] == "ok" for s in monitor.slo_status())

    def test_full_breach_pages_then_resolves(self):
        cluster, monitor = synthetic_monitor(self.SLO_SET)
        drive(cluster, monitor, "lat_ms", [1.0] * 40)
        drive(cluster, monitor, "lat_ms", [50.0] * 20)
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.severity == PAGE
        assert alert.active
        # Budget 0.1, every sample in both windows breached -> burn 10.
        assert alert.peak_burn == pytest.approx(10.0)
        status = monitor.slo_status()[0]
        assert status["status"] == "breaching"
        assert status["pages"] == 1
        # Recovery: the short windows drain first and the alert resolves.
        drive(cluster, monitor, "lat_ms", [1.0] * 60)
        assert not alert.active
        assert alert.resolved_at is not None
        assert not any(alert.active for alert in monitor.alerts)
        assert monitor.slo_status()[0]["status"] == "alerted"
        counters = cluster.metrics.counters()
        assert counters["health.alerts_fired{severity=page,slo=latency}"] == 1

    def test_partial_breach_warns_then_escalates_to_page(self):
        cluster, monitor = synthetic_monitor(self.SLO_SET)
        # Warm the long windows with healthy history.
        drive(cluster, monitor, "lat_ms", [1.0] * 40)
        # One breached tick in three: ~33% bad samples = burn ~3.3 — above
        # the warn factor (2), below the page factor (6).
        drive(cluster, monitor, "lat_ms", [50.0, 1.0, 1.0] * 12)
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].severity == WARN
        # The condition worsens to a full breach: same incident escalates.
        drive(cluster, monitor, "lat_ms", [50.0] * 20)
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].severity == PAGE
        counters = cluster.metrics.counters()
        assert counters["health.alerts_fired{severity=warn,slo=latency}"] == 1
        assert counters["health.alerts_fired{severity=page,slo=latency}"] == 1

    def test_ge_comparison_alerts_on_low_values(self):
        slos = (
            SLO("throughput", indicator="rate", threshold=100.0, comparison="ge"),
        )
        cluster, monitor = synthetic_monitor(slos)
        drive(cluster, monitor, "rate", [500.0] * 40)
        assert monitor.alerts == []
        drive(cluster, monitor, "rate", [10.0] * 20)
        assert len(monitor.alerts) == 1

    def test_alerts_mirror_into_the_tracer(self):
        cluster = Cluster(num_brokers=1, seed=7)
        cluster.network.charge_latency = False
        tracer = cluster.enable_tracing()
        monitor = HealthMonitor(
            cluster, apps=[], slos=self.SLO_SET, interval_ms=20.0
        )
        drive(cluster, monitor, "lat_ms", [1.0] * 40)
        drive(cluster, monitor, "lat_ms", [50.0] * 20)
        drive(cluster, monitor, "lat_ms", [1.0] * 60)
        fired = [s for s in tracer.spans if s.name == "alert.fired"]
        resolved = [s for s in tracer.spans if s.name == "alert.resolved"]
        assert len(fired) == 1 and len(resolved) == 1
        assert fired[0].category == "alert"
        assert fired[0].args["slo"] == "latency"
        assert fired[0].args["severity"] == PAGE
        assert resolved[0].start_ms == monitor.alerts[0].resolved_at
        # Escalations mirror too, on the same incident's track.
        assert fired[0].tid == "latency"

    def test_burn_gauge_is_published(self):
        cluster, monitor = synthetic_monitor(self.SLO_SET)
        drive(cluster, monitor, "lat_ms", [50.0] * 10)
        gauges = cluster.metrics.gauges()
        assert gauges["health.burn_rate{slo=latency}"] == pytest.approx(10.0)

    def test_poll_respects_the_interval(self):
        cluster, monitor = synthetic_monitor(self.SLO_SET)
        monitor.poll()
        ticks = monitor.ticks
        monitor.poll()  # same instant: no second tick
        assert monitor.ticks == ticks
        cluster.clock.advance(20.0)
        monitor.poll()
        assert monitor.ticks == ticks + 1


# -- the ISSUE's alert regression: each SLO fires when its hardening knob is off --------


def run_gray_cell(hedged_fetch: bool):
    """A gray leader under a continuously-fetching consumer.

    A bare consumer polls in a tight loop (every poll charges one fetch
    round trip, so the RTT EWMA and the gray detector both see a dense
    sample stream — unlike a streams cycle, whose processing RPCs space
    fetches out by ~100ms of virtual time). Mid-run the partition leader
    turns gray: +8ms on every RPC for 400ms.
    """
    cluster = Cluster(num_brokers=3, seed=11)  # latency charging ON
    tp = TopicPartition("t", 0)
    cluster.create_topic("t", 1)  # replicated: the hedge needs an ISR peer
    consumer = Consumer(
        cluster, ConsumerConfig(client_id="c0", hedged_fetch=hedged_fetch)
    )
    consumer.assign([tp])
    monitor = HealthMonitor(cluster, apps=[], interval_ms=20.0)

    def spin(until_ms):
        while cluster.clock.now < until_ms:
            consumer.poll(max_records=50)
            monitor.poll()

    spin(800.0)  # healthy baseline: warms the EWMAs and the long windows
    leader = cluster.partition_state(tp).leader
    FailureInjector(cluster).slow_broker(leader, delay_ms=8.0, duration_ms=400.0)
    start = cluster.clock.now
    window = (start, start + 400.0, "gray_broker")
    spin(start + 700.0)  # through the fault window plus a recovery tail
    monitor.tick()
    consumer.close()
    return monitor, [window]


class TestGrayBrokerRegression:
    def test_unhedged_fetch_pages_fetch_latency(self):
        monitor, windows = run_gray_cell(hedged_fetch=False)
        fetch_alerts = [a for a in monitor.alerts if a.slo == "fetch-latency"]
        assert fetch_alerts, "gray broker must page the fetch-latency SLO"
        assert fetch_alerts[0].severity == PAGE
        assert not fetch_alerts[0].active  # RTT recovers once the fault lifts
        assert monitor.unexpected_alerts(windows) == []
        assert monitor.uncovered_windows(windows) == []

    def test_hedged_fetch_avoids_the_page(self):
        monitor, _ = run_gray_cell(hedged_fetch=True)
        # The hedge demotes the gray leader after a couple of slow samples
        # and reroutes to an in-sync replica: the same fault, but the
        # client-observed RTT never sustains a page-level burn — only the
        # brief re-probe spikes while the leader re-earns its reputation.
        pages = [
            a
            for a in monitor.alerts
            if a.slo == "fetch-latency" and a.severity == PAGE
        ]
        assert pages == []
        counters = monitor.cluster.metrics.counters()
        assert counters.get("client.gray_demotions", 0) > 0
        assert counters.get("consumer.hedged_fetches", 0) > 0

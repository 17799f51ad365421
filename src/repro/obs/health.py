"""Streaming SLO engine: declarative objectives, burn-rate alerts.

The :class:`HealthMonitor` is a Driver actor that, on a fixed virtual-time
interval, (1) refreshes the live health gauges — per-partition committed
lag and completeness frontiers via :class:`~repro.obs.watermarks.
WatermarkTracker`, per-task processing rates, and a small set of derived
*indicator* gauges — (2) takes one :class:`~repro.obs.telemetry.
TelemetryReporter` sample, and (3) evaluates every :class:`SLO` against
the sampled indicator series with multi-window burn-rate alerting.

Burn rate is the SRE-workbook quantity scaled to virtual milliseconds:
with an objective of healthy-sample fraction ``objective``, the error
budget is ``1 - objective`` and the burn over a window is
``breached-sample fraction / budget``. An alert fires at a window's
severity when the burn meets its factor over **both** the long and the
short window — the long window gives significance, the short one makes
the alert stop quickly once the condition clears (the classic
multi-window, multi-burn-rate page/warn setup, compressed from hours to
the simulator's milliseconds).

Fired and resolved alerts are mirrored as tracer instants (category
``alert``), so they land on the Perfetto timeline next to the chaos
faults that caused them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.registry import labeled_name
from repro.obs.telemetry import TelemetryReporter
from repro.obs.watermarks import COMPLETE, WatermarkTracker

PAGE = "page"
WARN = "warn"
SEVERITIES = (PAGE, WARN)


@dataclass(frozen=True)
class BurnRateWindow:
    """One (severity, factor, long, short) rung of the alerting ladder."""

    severity: str
    factor: float
    long_ms: float
    short_ms: float

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        if self.factor <= 0:
            raise ValueError("factor must be > 0")
        if not 0 < self.short_ms <= self.long_ms:
            raise ValueError("windows must satisfy 0 < short_ms <= long_ms")


#: Page on a fast, severe burn; warn on a slower, sustained one. Scaled to
#: the chaos runs' timescales (fault windows of 150-600ms, 20ms sampling).
DEFAULT_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow(PAGE, factor=6.0, long_ms=240.0, short_ms=80.0),
    BurnRateWindow(WARN, factor=2.0, long_ms=720.0, short_ms=240.0),
)


@dataclass(frozen=True)
class SLO:
    """A declarative objective over one health indicator.

    The indicator is healthy when ``value <= threshold`` (or ``>=`` with
    ``comparison="ge"``); ``objective`` is the target fraction of healthy
    samples, so the error budget is ``1 - objective``.
    """

    name: str
    indicator: str
    threshold: float
    comparison: str = "le"
    objective: float = 0.9
    windows: Tuple[BurnRateWindow, ...] = DEFAULT_WINDOWS
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparison not in ("le", "ge"):
            raise ValueError("comparison must be 'le' or 'ge'")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if not self.windows:
            raise ValueError("at least one burn-rate window is required")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def breached(self, value: float) -> bool:
        if self.comparison == "le":
            return value > self.threshold
        return value < self.threshold


def default_slos(
    max_lag_records: float = 500.0,
    max_frontier_stall_ms: float = 150.0,
    max_fetch_rtt_ms: float = 4.0,
    max_failure_ratio: float = 0.0,
    max_recovery_gap_ms: float = 1_500.0,
) -> Tuple[SLO, ...]:
    """The stock objectives: freshness, lag, strong-read availability,
    fetch latency, recovery-gap duration."""
    return (
        SLO(
            "freshness",
            indicator="frontier_stall_ms",
            threshold=max_frontier_stall_ms,
            description=(
                "the completeness frontier keeps advancing while there is "
                "backlog (output freshness)"
            ),
        ),
        SLO(
            "consumer-lag",
            indicator="max_partition_lag",
            threshold=max_lag_records,
            description="no input partition's committed lag exceeds the bound",
        ),
        SLO(
            "fetch-latency",
            indicator="max_fetch_rtt_ms",
            threshold=max_fetch_rtt_ms,
            description="client-observed fetch round trips stay fast (gray brokers)",
        ),
        SLO(
            "strong-read-availability",
            indicator="strong_read_failure_ratio",
            threshold=max_failure_ratio,
            description="interactive queries keep succeeding",
        ),
        SLO(
            "recovery-gap",
            indicator="recovery_gap_ms",
            threshold=max_recovery_gap_ms,
            description="no open fault stays unrecovered past the bound",
        ),
    )


@dataclass
class Alert:
    """One fired alert: a contiguous run of a breached SLO condition."""

    slo: str
    severity: str
    fired_at: float
    resolved_at: Optional[float] = None
    peak_burn: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def overlaps(self, start: float, end: float, slack_ms: float = 0.0) -> bool:
        """True if this alert's active interval intersects
        ``[start, end + slack_ms]`` — the slack absorbs detection latency
        (stall thresholds plus the burn windows)."""
        alert_end = self.resolved_at if self.resolved_at is not None else float("inf")
        return self.fired_at <= end + slack_ms and alert_end >= start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "peak_burn": round(self.peak_burn, 3),
            "details": dict(self.details),
        }


#: Indicator gauge name; one labeled gauge per indicator.
INDICATOR_GAUGE = "health.indicator"


class HealthMonitor:
    """Driver actor: health gauges + telemetry sampling + SLO evaluation.

    Registered on the same driver as the apps (after them, so each tick
    observes the instant's settled state). Sampling rides ``poll()`` at
    actor safe points and never schedules future work, so an
    otherwise-idle simulation still terminates — the same housekeeping
    contract as :class:`~repro.obs.telemetry.TelemetryReporter` and the
    chaos controller's invariant checks.
    """

    def __init__(
        self,
        cluster,
        apps: Optional[List[Any]] = None,
        slos: Optional[Tuple[SLO, ...]] = None,
        interval_ms: float = 20.0,
        max_samples: Optional[int] = 4096,
        name: str = "health",
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.cluster = cluster
        self.clock = cluster.clock
        self.apps = list(apps or [])
        self.slos = tuple(slos if slos is not None else default_slos())
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.interval_ms = interval_ms
        self.name = name
        self.trackers: Dict[Any, WatermarkTracker] = {
            app: WatermarkTracker(app) for app in self.apps
        }
        # The SLO engine's sample store *is* a TelemetryReporter ring
        # buffer; burn rates are computed through its series() API.
        self.telemetry = TelemetryReporter(
            self.clock,
            {"cluster": cluster.metrics},
            interval_ms=interval_ms,
            name=f"{name}-telemetry",
            max_samples=max_samples,
        )
        self.alerts: List[Alert] = []
        self._active: Dict[str, Alert] = {}
        self.ticks = 0
        self._last_tick_ms = float("-inf")
        # Rate bookkeeping: (app_id, task) -> (last_count, last_ts).
        self._task_counts: Dict[Tuple[str, str], Tuple[int, float]] = {}
        # Strong-read failure deltas.
        self._iq_last = (0.0, 0.0)
        # Frontier-advance bookkeeping per app for the freshness indicator.
        self._frontier_state: Dict[str, Tuple[float, float]] = {}

    # -- installation -------------------------------------------------------------------

    def install(self) -> "HealthMonitor":
        """Hang this monitor off the cluster (``cluster.health``) so debug
        bundles can attach the health report on invariant violations."""
        self.cluster.health = self
        return self

    def uninstall(self) -> None:
        if getattr(self.cluster, "health", None) is self:
            self.cluster.health = None

    # -- Driver actor protocol ----------------------------------------------------------

    def poll(self) -> int:
        if self.clock.now - self._last_tick_ms >= self.interval_ms:
            self.tick()
        return 0

    # -- one evaluation tick ------------------------------------------------------------

    def tick(self) -> None:
        """Refresh gauges, sample, evaluate — once, at this instant."""
        now = self.clock.now
        self._last_tick_ms = now
        self.ticks += 1
        for app, tracker in self.trackers.items():
            tracker.update_gauges()
            self._update_task_rates(app)
        self._update_indicators()
        self.telemetry.sample()
        self._evaluate()

    # -- gauges -------------------------------------------------------------------------

    def _update_task_rates(self, app) -> None:
        """Per-task processing rate (records per virtual second) from
        deltas of the tasks' ``records_processed`` counters."""
        metrics = self.cluster.metrics
        now = self.clock.now
        app_id = app.config.application_id
        counts: Dict[str, int] = {}
        for instance in app.instances:
            for task_id, task in instance.tasks.items():
                key = repr(task_id)
                counts[key] = counts.get(key, 0) + task.records_processed
        for key, count in sorted(counts.items()):
            last_count, last_ts = self._task_counts.get((app_id, key), (0, now))
            elapsed = now - last_ts
            if elapsed > 0:
                # A migrated task restarts its counter; clamp at zero so a
                # handover never reads as negative throughput.
                delta = max(0, count - last_count)
                rate = delta / (elapsed / 1000.0)
                metrics.gauge("streams.task_rate", app=app_id, task=key).set(
                    round(rate, 3)
                )
            self._task_counts[(app_id, key)] = (count, now)

    def _update_indicators(self) -> None:
        now = self.clock.now
        set_indicator = self._set_indicator

        max_lag = 0
        for tracker in self.trackers.values():
            lags = tracker.lags()
            if lags:
                max_lag = max(max_lag, max(lags.values()))
        set_indicator("max_partition_lag", float(max_lag))

        # Freshness: time since the app frontier last advanced, while
        # backlog exists. A caught-up or advancing frontier is fresh.
        stall = 0.0
        for app, tracker in self.trackers.items():
            app_id = app.config.application_id
            frontier = tracker.frontier()
            lag = tracker.total_lag()
            prev = self._frontier_state.get(app_id)
            if prev is None or frontier != prev[0] or lag == 0:
                self._frontier_state[app_id] = (frontier, now)
            else:
                stall = max(stall, now - prev[1])
        set_indicator("frontier_stall_ms", stall)

        # Client-observed fetch RTT: max over the consumers' EWMA gauges.
        rtt = 0.0
        prefix = "consumer.fetch_rtt_ms{"
        for key, value in self.cluster.metrics.gauges().items():
            if key.startswith(prefix):
                rtt = max(rtt, value)
        set_indicator("max_fetch_rtt_ms", round(rtt, 6))

        # Strong-read availability: failure fraction of the queries issued
        # since the last tick (0.0 when no queries were issued).
        counters = self.cluster.metrics.counters()
        queries = counters.get("iq.queries", 0)
        failures = counters.get("iq.failures", 0)
        last_q, last_f = self._iq_last
        dq, df = queries - last_q, failures - last_f
        self._iq_last = (queries, failures)
        set_indicator(
            "strong_read_failure_ratio", (df / dq) if dq > 0 else 0.0
        )

        # Recovery gap: how long the oldest unrecovered fault has been open.
        gap = 0.0
        rec = self.cluster.recovery
        if rec.fault_at is not None and rec.recovered_at is None:
            gap = now - rec.fault_at
        set_indicator("recovery_gap_ms", gap)

    def _set_indicator(self, indicator: str, value: float) -> None:
        self.cluster.metrics.gauge(INDICATOR_GAUGE, indicator=indicator).set(value)

    def indicator_series(self, indicator: str, since_ms: Optional[float] = None):
        """The sampled ``(ts, value)`` series of one indicator."""
        return self.telemetry.series(
            "cluster",
            "gauges",
            labeled_name(INDICATOR_GAUGE, {"indicator": indicator}),
            since_ms=since_ms,
        )

    # -- SLO evaluation -----------------------------------------------------------------

    def _burn(self, slo: SLO, window_ms: float) -> float:
        now = self.clock.now
        points = self.indicator_series(slo.indicator, since_ms=now - window_ms)
        if not points:
            return 0.0
        breached = sum(1 for _, value in points if slo.breached(value))
        return (breached / len(points)) / slo.budget

    def _evaluate(self) -> None:
        now = self.clock.now
        metrics = self.cluster.metrics
        tracer = self.cluster.tracer
        for slo in self.slos:
            severity = None
            burn_seen = 0.0
            for window in slo.windows:
                long_burn = self._burn(slo, window.long_ms)
                short_burn = self._burn(slo, window.short_ms)
                burn = min(long_burn, short_burn)
                burn_seen = max(burn_seen, burn)
                if long_burn >= window.factor and short_burn >= window.factor:
                    severity = window.severity
                    break
            metrics.gauge("health.burn_rate", slo=slo.name).set(
                round(burn_seen, 3)
            )
            active = self._active.get(slo.name)
            if severity is not None:
                if active is None:
                    alert = Alert(
                        slo=slo.name,
                        severity=severity,
                        fired_at=now,
                        peak_burn=burn_seen,
                        details={"indicator": slo.indicator},
                    )
                    self._active[slo.name] = alert
                    self.alerts.append(alert)
                    metrics.counter(
                        "health.alerts_fired", slo=slo.name, severity=severity
                    ).increment()
                    if tracer.enabled:
                        tracer.event(
                            "alert.fired", "health", slo.name,
                            category="alert", slo=slo.name, severity=severity,
                            burn=round(burn_seen, 3),
                        )
                else:
                    active.peak_burn = max(active.peak_burn, burn_seen)
                    if severity == PAGE and active.severity == WARN:
                        # Escalate in place: one incident, highest severity.
                        active.severity = PAGE
                        metrics.counter(
                            "health.alerts_fired", slo=slo.name, severity=PAGE
                        ).increment()
                        if tracer.enabled:
                            tracer.event(
                                "alert.escalated", "health", slo.name,
                                category="alert", slo=slo.name, severity=PAGE,
                            )
            elif active is not None:
                active.resolved_at = now
                del self._active[slo.name]
                if tracer.enabled:
                    tracer.event(
                        "alert.resolved", "health", slo.name,
                        category="alert", slo=slo.name,
                        severity=active.severity,
                        duration_ms=round(now - active.fired_at, 3),
                    )

    # -- reporting ----------------------------------------------------------------------

    def unexpected_alerts(
        self,
        fault_windows: List[Tuple[float, float, str]],
        slack_ms: float = 600.0,
    ) -> List[Alert]:
        """Alerts that overlap none of the given fault windows — the
        false-positive check for scenario runs (zero expected)."""
        out = []
        for alert in self.alerts:
            if not any(
                alert.overlaps(start, end, slack_ms=slack_ms)
                for start, end, _ in fault_windows
            ):
                out.append(alert)
        return out

    def uncovered_windows(
        self,
        fault_windows: List[Tuple[float, float, str]],
        slack_ms: float = 600.0,
    ) -> List[Tuple[float, float, str]]:
        """Fault windows no alert overlaps — the false-negative check for
        chaos runs (zero expected)."""
        out = []
        for start, end, label in fault_windows:
            if not any(
                alert.overlaps(start, end, slack_ms=slack_ms)
                for alert in self.alerts
            ):
                out.append((start, end, label))
        return out

    def slo_status(self) -> List[Dict[str, Any]]:
        """Per-SLO summary for the health report."""
        out = []
        for slo in self.slos:
            fired = [a for a in self.alerts if a.slo == slo.name]
            out.append(
                {
                    "name": slo.name,
                    "indicator": slo.indicator,
                    "threshold": slo.threshold,
                    "comparison": slo.comparison,
                    "objective": slo.objective,
                    "description": slo.description,
                    "alerts": len(fired),
                    "pages": sum(1 for a in fired if a.severity == PAGE),
                    "active": any(a.active for a in fired),
                    "status": "breaching" if any(a.active for a in fired)
                    else ("alerted" if fired else "ok"),
                }
            )
        return out

    def completeness(self) -> Dict[str, Any]:
        """Per-app frontier/lag snapshot (this instant)."""
        out: Dict[str, Any] = {}
        for app, tracker in self.trackers.items():
            frontier = tracker.frontier()
            out[app.config.application_id] = {
                "frontier": None if frontier == COMPLETE else frontier,
                "total_lag": tracker.total_lag(),
                "lags": {
                    repr(tp): lag for tp, lag in sorted(tracker.lags().items())
                },
            }
        return out

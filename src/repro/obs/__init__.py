"""Observability over virtual time: tracing, telemetry, exporters.

See :mod:`repro.obs.tracer` for the span model, :mod:`repro.obs.stages`
for the per-stage latency decomposition, :mod:`repro.obs.telemetry` for
interval sampling, :mod:`repro.obs.watermarks` for committed lag and the
completeness frontier, :mod:`repro.obs.health` for the SLO engine and
burn-rate alerting, :mod:`repro.obs.export` for the JSONL /
Chrome-trace / summary exporters, :mod:`repro.obs.report` for
single-file health reports, and
:mod:`repro.obs.debug` for failure debug bundles.
"""

from repro.obs.debug import dump_debug_bundle
from repro.obs.health import (
    PAGE,
    WARN,
    Alert,
    BurnRateWindow,
    HealthMonitor,
    SLO,
    default_slos,
)
from repro.obs.recovery import PHASES as RECOVERY_PHASES, RecoveryTracker
from repro.obs.export import (
    chrome_trace,
    run_summary,
    span_log_lines,
    write_chrome_trace,
    write_span_log,
)
from repro.obs.report import (
    health_report,
    render_health_html,
    report_json,
    write_health_report,
)
from repro.obs.stages import (
    EMITTED_AT_HEADER,
    FETCHED_AT_HEADER,
    PROCESSED_AT_HEADER,
    STAGES,
    StageLatencyTracker,
)
from repro.obs.telemetry import TelemetryReporter
from repro.obs.tracer import NOOP_TRACER, Span, TRACE_ID_HEADER, Tracer
from repro.obs.watermarks import COMPLETE, WatermarkTracker, partition_frontier

__all__ = [
    "NOOP_TRACER",
    "Span",
    "TRACE_ID_HEADER",
    "Tracer",
    "chrome_trace",
    "run_summary",
    "span_log_lines",
    "write_chrome_trace",
    "write_span_log",
    "EMITTED_AT_HEADER",
    "FETCHED_AT_HEADER",
    "PROCESSED_AT_HEADER",
    "STAGES",
    "RECOVERY_PHASES",
    "RecoveryTracker",
    "StageLatencyTracker",
    "TelemetryReporter",
    "dump_debug_bundle",
    "COMPLETE",
    "WatermarkTracker",
    "partition_frontier",
    "PAGE",
    "WARN",
    "Alert",
    "BurnRateWindow",
    "HealthMonitor",
    "SLO",
    "default_slos",
    "health_report",
    "render_health_html",
    "report_json",
    "write_health_report",
]

"""Trace exporters: JSONL span log, Chrome trace-event JSON, run summary.

Three views of one :class:`~repro.obs.tracer.Tracer`:

* :func:`span_log_lines` / :func:`write_span_log` — one JSON object per
  span, keys sorted, compact separators. Deterministic runs produce
  byte-identical logs, so a span log can be diffed across seeds or used as
  a golden file.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (JSON object with a ``traceEvents`` array), loadable
  in Perfetto (https://ui.perfetto.dev) or chrome://tracing. Component
  names (``broker-0``, ``streams-bench``, ``txn-coordinator``) become
  processes, their lanes (topic-partitions, tasks, RPC kinds) become
  threads, named via ``M``-phase metadata events.
* :func:`run_summary` — a plain-text digest: top span names by total
  virtual time, event counts per category, and (when given) the metrics
  registry and per-stage latency breakdown.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer

# Virtual milliseconds -> trace-event microseconds.
_US_PER_MS = 1000.0


def _dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


# -- JSONL span log --------------------------------------------------------------------


def span_log_lines(tracer: Tracer) -> List[str]:
    """The span log as canonical-JSON lines (append order)."""
    return [_dumps(span.to_dict()) for span in tracer.spans]


def write_span_log(tracer: Tracer, path: str) -> str:
    with open(path, "w") as f:
        for line in span_log_lines(tracer):
            f.write(line)
            f.write("\n")
    return path


# -- Chrome trace-event JSON ------------------------------------------------------------


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Convert spans to the Chrome trace-event format.

    pid/tid must be integers in the format; names are assigned stable ids
    in order of first appearance and labelled with ``process_name`` /
    ``thread_name`` metadata events.
    """
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []

    def pid_of(name: str) -> int:
        pid = pids.get(name)
        if pid is None:
            pid = len(pids) + 1
            pids[name] = pid
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": name},
                }
            )
        return pid

    def tid_of(pid: int, name: str) -> int:
        key = (pid, name)
        tid = tids.get(key)
        if tid is None:
            tid = sum(1 for p, _ in tids if p == pid) + 1
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": name},
                }
            )
        return tid

    for span in tracer.spans:
        pid = pid_of(span.pid)
        tid = tid_of(pid, span.tid)
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category or "default",
            "pid": pid,
            "tid": tid,
            "ts": span.start_ms * _US_PER_MS,
        }
        if span.is_instant:
            event["ph"] = "i"
            event["s"] = "t"            # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.duration_ms * _US_PER_MS
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    with open(path, "w") as f:
        f.write(_dumps(chrome_trace(tracer)))
    return path


# -- plain-text run summary --------------------------------------------------------------


def run_summary(
    tracer: Tracer,
    registry: Optional[Any] = None,
    stages: Optional[Any] = None,
    top: int = 12,
) -> str:
    """Digest of a run: top spans by total virtual time, category counts,
    optional metrics snapshot and per-stage latency breakdown.

    ``registry`` duck-types :class:`~repro.metrics.registry.MetricsRegistry`
    (``counters()``/``gauges()``/``histograms()``); ``stages`` duck-types
    :class:`~repro.obs.stages.StageLatencyTracker` (``breakdown()``).
    """
    from repro.metrics.reporter import format_table

    sections: List[str] = []

    totals: Dict[str, List[float]] = {}
    for span in tracer.spans:
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += span.duration_ms
    by_total = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
    rows = [
        [name, int(count), round(total, 3)]
        for name, (count, total) in by_total[:top]
    ]
    sections.append("== Top spans by total virtual time ==")
    sections.append(format_table(["span", "count", "total (ms)"], rows))

    categories: Dict[str, int] = {}
    for span in tracer.spans:
        cat = span.category or "default"
        categories[cat] = categories.get(cat, 0) + 1
    sections.append("")
    sections.append("== Span/event counts by category ==")
    sections.append(
        format_table(
            ["category", "count"],
            [[cat, n] for cat, n in sorted(categories.items())],
        )
    )

    if stages is not None:
        breakdown = stages.breakdown()
        if breakdown:
            sections.append("")
            sections.append("== End-to-end latency by stage (mean ms) ==")
            rows = [[stage, round(mean, 3)] for stage, mean in breakdown.items()]
            rows.append(["(stage sum)", round(sum(breakdown.values()), 3)])
            rows.append(["(e2e mean)", round(stages.mean_ms(), 3)])
            sections.append(format_table(["stage", "mean (ms)"], rows))

    if registry is not None:
        counters = registry.counters()
        if counters:
            sections.append("")
            sections.append("== Counters ==")
            sections.append(
                format_table(
                    ["counter", "value"], [[k, v] for k, v in counters.items()]
                )
            )
        gauges = getattr(registry, "gauges", lambda: {})()
        if gauges:
            sections.append("")
            sections.append("== Gauges ==")
            sections.append(
                format_table(
                    ["gauge", "value"], [[k, v] for k, v in gauges.items()]
                )
            )
        histograms = registry.histograms()
        if histograms:
            sections.append("")
            sections.append("== Histograms ==")
            rows = [
                [name, int(snap["count"]), round(snap["mean"], 3),
                 round(snap["p99"], 3)]
                for name, snap in histograms.items()
            ]
            sections.append(format_table(["histogram", "count", "mean", "p99"], rows))

    return "\n".join(sections)

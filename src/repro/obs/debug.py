"""Failure debug bundles.

When a chaos-run invariant trips, a committed-output diff alone says
*what* diverged, not *when* or *why*. :func:`dump_debug_bundle` writes
everything observable about the run to a directory — the JSONL span log,
the Perfetto-loadable Chrome trace, metrics snapshots per registry, the
chaos fault timeline, and the plain-text run summary — so the failure can
be inspected offline (CI uploads the directory as an artifact).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.export import (
    run_summary,
    write_chrome_trace,
    write_span_log,
)
from repro.obs.tracer import Tracer

#: Environment override for where bundles land (CI sets this so the
#: artifact-upload step has a fixed path to glob).
DUMP_DIR_ENV = "CHAOS_DUMP_DIR"
DEFAULT_DUMP_DIR = "chaos-dumps"


def dump_dir() -> str:
    return os.environ.get(DUMP_DIR_ENV, DEFAULT_DUMP_DIR)


def dump_debug_bundle(
    label: str,
    tracer: Tracer,
    registries: Optional[Dict[str, Any]] = None,
    timeline: Optional[List[Any]] = None,
    base_dir: Optional[str] = None,
    health: Optional[Any] = None,
) -> str:
    """Write one bundle directory and return its path.

    ``label`` names the bundle (e.g. ``chaos-seed7``); the virtual
    timestamp is appended so repeated failures in one process don't
    clobber each other. ``registries`` maps labels to MetricsRegistry
    instances; ``timeline`` is the chaos controller's event list;
    ``health`` is a :class:`~repro.obs.health.HealthMonitor` whose
    HTML/JSON report rides along for staleness/alert forensics.
    """
    base = base_dir or dump_dir()
    stamp = int(tracer.now())
    bundle = os.path.join(base, f"{label}-t{stamp}")
    suffix = 0
    while os.path.exists(bundle):
        suffix += 1
        bundle = os.path.join(base, f"{label}-t{stamp}-{suffix}")
    os.makedirs(bundle)

    write_span_log(tracer, os.path.join(bundle, "spans.jsonl"))
    write_chrome_trace(tracer, os.path.join(bundle, "trace.json"))

    metrics: Dict[str, Any] = {}
    for reg_label, registry in sorted((registries or {}).items()):
        metrics[reg_label] = {
            "counters": dict(registry.counters()),
            "gauges": dict(getattr(registry, "gauges", lambda: {})()),
            "histograms": registry.histograms(),
        }
    with open(os.path.join(bundle, "metrics.json"), "w") as f:
        json.dump(metrics, f, sort_keys=True, indent=2, default=repr)

    if timeline is not None:
        with open(os.path.join(bundle, "chaos-timeline.txt"), "w") as f:
            for entry in timeline:
                f.write(f"{entry}\n")

    first_registry = next(iter((registries or {}).values()), None)
    with open(os.path.join(bundle, "summary.txt"), "w") as f:
        f.write(run_summary(tracer, registry=first_registry))
        f.write("\n")

    if health is not None:
        from repro.obs.report import write_health_report

        write_health_report(health, bundle, label=label, fault_timeline=timeline)

    return bundle

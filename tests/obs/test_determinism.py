"""End-to-end observability guarantees under chaos.

The load-bearing promises: a traced chaos run is byte-replayable (same
seed → identical span log), tracing never changes committed output, the
exported Chrome trace is schema-valid, and trace ids survive the full
record path into the output topic.
"""

import pytest

from repro.obs.export import chrome_trace, span_log_lines
from repro.obs.tracer import TRACE_ID_HEADER
from repro.sim.invariants import committed_records

from tests.sim.test_chaos import golden_output, run_chaos
from tests.streams.harness import drain_topic


@pytest.fixture(scope="module")
def golden():
    return golden_output()


@pytest.fixture(scope="module")
def traced_runs(golden):
    """Two traced chaos runs of the same seed (fault timeline included)."""
    return [run_chaos(seed=5, golden=golden, trace=True) for _ in range(2)]


def test_same_seed_byte_identical_span_logs(traced_runs):
    logs = [span_log_lines(cluster.tracer) for cluster, _, _, _ in traced_runs]
    assert logs[0], "traced chaos run recorded no spans"
    assert logs[0] == logs[1], "same seed must replay the same span log"


def test_tracing_preserves_committed_output(golden, traced_runs):
    cluster_off, _, _, _ = run_chaos(seed=5, golden=golden, trace=False)
    off = committed_records(cluster_off, ["out"])
    on = committed_records(traced_runs[0][0], ["out"])
    assert on == off, "enabling tracing changed the committed output"


def test_chaos_chrome_trace_schema_valid(traced_runs):
    cluster = traced_runs[0][0]
    events = chrome_trace(cluster.tracer)["traceEvents"]
    assert events
    for event in events:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    # The one timeline covers the subsystems the chaos run exercised.
    categories = {span.category for span in cluster.tracer.spans}
    assert {"rpc", "txn", "chaos"} <= categories


def test_rebalance_metrics_deterministic(golden):
    """The cooperative-rebalance metrics — rebalance counts, revoked and
    retained task counters, the unavailability histogram — replay exactly
    for the same seed, and a faulty run actually populates them."""
    from repro.config import COOPERATIVE
    from repro.sim.chaos import ChaosConfig

    # Instance crashes only: every fault is a rebalance, so the counters
    # under test are guaranteed to be populated.
    config = ChaosConfig(horizon_ms=3_000.0, kinds=("instance_crash",))
    runs = [
        run_chaos(seed=9, golden=golden, protocol=COOPERATIVE, config=config)
        for _ in range(2)
    ]
    snapshots = []
    for cluster, _, _, _ in runs:
        counters = {
            name: value
            for name, value in cluster.metrics.counters().items()
            if name.startswith(
                ("rebalance_count", "tasks_revoked_total", "tasks_retained_total")
            )
        }
        histograms = {
            name: snap
            for name, snap in cluster.metrics.histograms().items()
            if name.startswith("rebalance_unavailability_ms")
        }
        snapshots.append((counters, histograms))
    assert snapshots[0] == snapshots[1], "rebalance metrics are not deterministic"
    counters, _ = snapshots[0]
    assert any(
        name.startswith("rebalance_count") and value > 0
        for name, value in counters.items()
    )
    assert any(
        name.startswith("tasks_retained_total") and value > 0
        for name, value in counters.items()
    )


def test_trace_ids_propagate_to_committed_output(traced_runs):
    cluster = traced_runs[0][0]
    records = drain_topic(cluster, "out")
    trace_ids = {r.headers.get(TRACE_ID_HEADER) for r in records} - {None}
    assert trace_ids, "output records lost their trace ids"
    # Each id keys a causal chain of spans (the task.process hops).
    tracer = cluster.tracer
    chained = sum(
        1 for tid in trace_ids
        if any(
            span.args.get("trace") == tid or tid in span.args.get("traces", ())
            for span in tracer.spans
        )
    )
    assert chained > 0

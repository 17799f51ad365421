"""Per-layer metrics of one traced repetition.

Times come from the benchmark-side spans (``tracing.py``); counts come
from those same wrappers or from counters the program already exposes
(``Network.rpc_counts``, ``Driver.stats()``, ``cluster.metrics``,
``txn_coordinator.markers_written``, ``Producer.records_sent`` ...).
Every declared name is always present: a layer that does not run on a
workload reports 0.
"""

from __future__ import annotations

from typing import Any, Dict

from manifest import LAYER_NAMES
from tracing import ROOT, Recorder

# Each *.self_s metric and the span it is read from. Together with the
# timed region's own remainder these cover every span the trace opens, so
# the column adds up to the traced region.
SELF_SPANS = {
    "log.append.self_s": "log.append",
    "log.read.self_s": "log.read",
    "broker.produce.self_s": "broker.produce",
    "broker.fetch.self_s": "broker.fetch",
    "broker.replica_fetch.self_s": "broker.replica_fetch",
    "broker.txn.self_s": "broker.txn",
    "broker.group.self_s": "broker.group",
    "sim.network.self_s": "sim.network",
    "sim.driver.self_s": "sim.driver",
    "clients.producer.send.self_s": "clients.producer.send",
    "clients.producer.flush.self_s": "clients.producer.flush",
    "clients.producer.txn.self_s": "clients.producer.txn",
    "clients.consumer.poll.self_s": ("clients.consumer.poll", "clients.consumer.commit"),
    "runtime.poll.self_s": "runtime.poll",
    "runtime.process.self_s": "runtime.process",
    "runtime.commit.self_s": "runtime.commit",
    "runtime.restore.self_s": "runtime.restore",
    "app.state.put.self_s": "app.state.put",
    "app.state.get.self_s": "app.state.get",
    "loadgen.self_s": "loadgen",
    "verifier.self_s": "verifier",
}

CALL_SPANS = {
    "log.append.calls": "log.append",
    "log.read.calls": "log.read",
    "broker.produce.calls": "broker.produce",
    "broker.fetch.calls": "broker.fetch",
    "broker.txn.calls": "broker.txn",
    "broker.group.calls": "broker.group",
    "clients.producer.send.calls": "clients.producer.send",
    "clients.consumer.poll.calls": "clients.consumer.poll",
    "runtime.process.calls": "runtime.process",
    "runtime.commit.calls": "runtime.commit",
    "app.state.put.calls": "app.state.put",
    "app.state.get.calls": "app.state.get",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _names(spans) -> tuple:
    return (spans,) if isinstance(spans, str) else spans


def program_counters(workload, rec: Recorder) -> Dict[str, float]:
    """Monotonic counters the program keeps; read after set-up and after
    the timed region, the difference belongs to the timed region."""
    cluster = workload.cluster
    metrics = cluster.metrics
    stats = [driver.stats() for driver in workload.drivers]
    app = workload.app
    return {
        "broker.txn.markers_written": cluster.txn_coordinator.markers_written,
        "sim.network.rpcs": sum(cluster.network.rpc_counts.values()),
        "sim.driver.cycles": sum(s["cycles"] for s in stats),
        "sim.driver.idle_skipped_ms": sum(s["idle_skipped_ms"] for s in stats),
        "runtime.rebalances": sum(metrics.counters("rebalance_count").values()),
        "app.revisions_emitted": app.metric_total("revisions_emitted") if app else 0,
        "clients.producer.retries": sum(p.retries_performed for p in rec.producers),
        "_fastpath": sum(metrics.counters("streams.batch_fastpath_total").values()),
        "_fallback": sum(metrics.counters("streams.batch_fallback_total").values()),
        "_producer_records": sum(p.records_sent for p in rec.producers),
        "_producer_batches": sum(p.batches_sent for p in rec.producers),
    }


def program_levels(workload) -> Dict[str, float]:
    """Sizes at the end of the repetition, and ratios over all of it."""
    cluster = workload.cluster
    out: Dict[str, float] = {
        "log.records_retained": sum(
            len(state.leader_log())
            for state in cluster.partition_states().values()
            if state.leader is not None
        ),
        "app.results_per_record": _ratio(
            workload.output_rows(), workload.input_records()
        ),
    }
    app = workload.app
    if app is not None:
        tasks = [t for i in app.instances for t in i.tasks.values()]
        out["app.state.entries"] = sum(
            store.approximate_num_entries()
            for task in tasks for store in task.stores().values()
        )
        out["app.changelog.records"] = sum(
            1
            for topic in cluster.topics if topic.endswith("-changelog")
            for tp in cluster.partitions_for(topic)
            for r in cluster.partition_state(tp).leader_log().records()
            if not r.is_control
        )
        out["app.late_dropped_share"] = _ratio(
            app.metric_total("dropped_records"), workload.input_records()
        )
        out["runtime.restore.records"] = workload.recovery.get(
            "restored_records", sum(t.restored_records for t in tasks)
        )
    for phase in ("detect", "rebalance", "restore", "catchup"):
        out[f"runtime.recovery.{phase}_ms"] = workload.recovery.get(f"{phase}_ms", 0.0)
    return out


def layer_metrics(
    rec: Recorder,
    counters: Dict[str, float],
    levels: Dict[str, float],
    traced_region_s: float,
    plain_region_s: float,
    stages: Dict[str, float],
    ladder: Dict[str, float],
) -> Dict[str, float]:
    """Every declared per-layer metric, by name."""
    out: Dict[str, Any] = dict.fromkeys(LAYER_NAMES, 0.0)
    out.update(levels)
    out.update((k, v) for k, v in counters.items() if not k.startswith("_"))
    out["runtime.batch_fastpath_share"] = _ratio(
        counters["_fastpath"], counters["_fastpath"] + counters["_fallback"]
    )
    out["clients.producer.records_per_batch"] = _ratio(
        counters["_producer_records"], counters["_producer_batches"]
    )
    for name, spans in SELF_SPANS.items():
        out[name] = rec.self_s(*_names(spans))
    for name, spans in CALL_SPANS.items():
        out[name] = rec.calls(*_names(spans))
    hooks = rec.counts
    out["log.read.returned_share"] = _ratio(
        hooks["broker.fetch.returned"], hooks["log.scanned"]
    )
    out["broker.fetch.empty_share"] = _ratio(
        hooks["broker.fetch.empty"], rec.calls("broker.fetch")
    )
    out["clients.consumer.empty_poll_share"] = _ratio(
        hooks["consumer.empty_polls"], rec.calls("clients.consumer.poll")
    )
    out["sim.driver.idle_cycle_share"] = _ratio(
        hooks["driver.idle_cycles"], hooks["driver.cycles"]
    )
    out["sim.network.charged_ms"] = hooks["network.charged_ms"]
    out["trace.region_s"] = traced_region_s
    out["trace.overhead_ratio"] = _ratio(traced_region_s, plain_region_s)
    out["trace.unattributed_share"] = _ratio(
        rec.self_s(ROOT), rec.total_s(ROOT)
    )
    for stage, value in stages.items():
        out[f"stage.{stage}_ms"] = value
    out.update(ladder)
    missing = set(out) - set(LAYER_NAMES)
    if missing:
        raise KeyError(f"undeclared per-layer metrics: {sorted(missing)}")
    return out

"""Shared benchmark harness.

Reproduces the paper's evaluation setup (Section 4.3): a three-broker
cluster, an input topic written by a streaming data generator, a
single-instance streams application performing a stateful reduce, an
output topic read by a read-committed consumer, and per-record end-to-end
latency measured from the record's creation time to the consumer's
reception of its result. All times are virtual milliseconds.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.barriers.engine import BarrierEngine
from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.config import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    ConsumerConfig,
    StreamsConfig,
)
from repro.metrics.latency import LatencyTracker
from repro.obs import StageLatencyTracker, TelemetryReporter
from repro.sim.scheduler import Driver
from repro.streams import KafkaStreams, StreamsBuilder
from repro.workloads.generator import WorkloadGenerator


def bench_scale() -> float:
    """Global duration multiplier (CI smoke runs set BENCH_SCALE=0.1)."""
    return float(os.environ.get("BENCH_SCALE", "1.0"))


def smoke_mode() -> bool:
    """True in reduced-size CI smoke runs: benches still execute end to
    end but skip the statistical shape assertions, which need the
    full-length windows to be meaningful."""
    return os.environ.get("BENCH_SMOKE") == "1" or bench_scale() < 1.0


@dataclass
class BenchResult:
    """Outcome of one benchmark configuration."""

    label: str
    records: int = 0
    elapsed_ms: float = 0.0
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    extra: Dict[str, float] = field(default_factory=dict)
    # Populated only for traced runs (run_streams_reduce(trace=True)).
    tracer: Optional[Any] = None
    telemetry: Optional[Any] = None

    @property
    def throughput_per_sec(self) -> float:
        if self.elapsed_ms <= 0:
            return 0.0
        return self.records / (self.elapsed_ms / 1000.0)

    @property
    def mean_latency_ms(self) -> float:
        return self.latency.mean_ms()

    @property
    def p99_latency_ms(self) -> float:
        return self.latency.p99_ms()


def bench_result_dict(result: BenchResult) -> Dict[str, Any]:
    """One BenchResult as plain JSON-ready metrics."""
    return {
        "label": result.label,
        "records": result.records,
        "sim_elapsed_ms": round(result.elapsed_ms, 3),
        "throughput_per_sec": round(result.throughput_per_sec, 3),
        "mean_latency_ms": round(result.mean_latency_ms, 3),
        "p99_latency_ms": round(result.p99_latency_ms, 3),
        "extra": dict(sorted(result.extra.items())),
    }


def write_bench_json(
    name: str,
    config: Dict[str, Any],
    results: Iterable[Any],
    wall_seconds: Optional[float] = None,
    directory: Optional[str] = None,
) -> str:
    """Write ``BENCH_<name>.json`` — the machine-readable benchmark record.

    ``results`` are BenchResults (or already-plain dicts, for benches with
    their own row shape); ``config`` is whatever knobs identify the run.
    Virtual timings (``sim_elapsed_ms``) and wall time are kept side by
    side — the gap between them is the simulator's time compression.
    Lands at the repo root (override with ``BENCH_RESULTS_DIR``) so the
    committed ``BENCH_*.json`` records are one flat, diffable set next to
    the code that produced them; human-readable tables stay in
    ``benchmarks/results/``.
    """
    directory = directory or os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    os.makedirs(directory, exist_ok=True)
    payload = {
        "name": name,
        "config": dict(config),
        "bench_scale": bench_scale(),
        "smoke_mode": smoke_mode(),
        "results": [
            r if isinstance(r, dict) else bench_result_dict(r) for r in results
        ],
        "wall_seconds": None if wall_seconds is None else round(wall_seconds, 3),
    }
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


class WallTimer:
    """Context manager capturing a bench's wall-clock cost (this file is
    outside the virtual-time-only zone; ``src/repro/obs`` is linted
    against wall clocks, benchmarks deliberately report both)."""

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def make_bench_cluster(seed: int = 101) -> Cluster:
    """Three brokers, latency charging on (the evaluation testbed)."""
    return Cluster(num_brokers=3, seed=seed)


def reduce_topology(input_topic: str = "input", output_topic: str = "output"):
    """The paper's benchmark app: a stateful reduce over the input keys."""
    builder = StreamsBuilder()
    (
        builder.stream(input_topic)
        .group_by_key()
        .reduce(lambda aggregate, value: aggregate + value)
        .to_stream()
        .to(output_topic)
    )
    return builder.build()


def run_streams_reduce(
    output_partitions: int = 10,
    guarantee: str = EXACTLY_ONCE,
    commit_interval_ms: float = 100.0,
    duration_ms: float = 3000.0,
    rate_per_sec: float = 10_000.0,
    input_partitions: int = 4,
    key_space: Optional[int] = None,
    seed: int = 101,
    label: Optional[str] = None,
    trace: bool = False,
    columnar_clients: bool = False,
) -> BenchResult:
    """One full run of the Figure 5 scenario; returns throughput+latency.

    ``columnar_clients`` selects the load generator's slab producer
    (``produce_for_columnar``) and a sink drain that reads header columns
    instead of records — the benchmark's own per-record work, not the
    app's: the app runs the same way either way.

    With ``trace=True`` the cluster's tracer records the full span timeline,
    stage stamps decompose end-to-end latency (see
    :class:`repro.obs.StageLatencyTracker`), and a telemetry reporter samples
    cluster metrics every commit interval; the result carries ``tracer`` and
    ``telemetry`` for export.
    """
    duration_ms *= bench_scale()
    cluster = make_bench_cluster(seed)
    if trace:
        cluster.enable_tracing()
    cluster.create_topic("input", input_partitions)
    cluster.create_topic("output", output_partitions)
    app = KafkaStreams(
        reduce_topology(),
        cluster,
        StreamsConfig(
            application_id="bench",
            processing_guarantee=guarantee,
            commit_interval_ms=commit_interval_ms,
        ),
    )
    app.start(1)
    generator = WorkloadGenerator(
        cluster,
        "input",
        rate_per_sec=rate_per_sec,
        key_space=key_space or max(4 * output_partitions, 64),
        value_fn=lambda rng, i: 1,
        seed=seed,
    )
    isolation = READ_COMMITTED if guarantee != AT_LEAST_ONCE else READ_UNCOMMITTED
    sink_consumer = Consumer(
        cluster, ConsumerConfig(client_id="verifier", isolation_level=isolation)
    )
    sink_consumer.assign(cluster.partitions_for("output"))
    # StageLatencyTracker degrades to a plain LatencyTracker when tracing
    # is off (no stage stamps in the headers → no stage histograms).
    tracker = StageLatencyTracker()

    # One driver schedules the app and the sink drain; the drain reports
    # records seen, so the driver keeps cycling while output still lands.
    driver = Driver(cluster.clock, tracer=cluster.tracer)
    driver.register(app)
    driver.register(
        _SinkDrain(cluster, sink_consumer, tracker, columnar=columnar_clients)
    )
    telemetry = None
    if trace:
        telemetry = TelemetryReporter(
            cluster.clock,
            {"cluster": cluster.metrics},
            interval_ms=commit_interval_ms,
        )
        driver.register(telemetry)

    start = cluster.clock.now
    deadline = start + duration_ms
    slice_ms = min(commit_interval_ms / 2, 25.0)
    produce_slice = (
        generator.produce_for_columnar if columnar_clients
        else generator.produce_for
    )
    while cluster.clock.now < deadline:
        produce_slice(slice_ms)
        driver.poll_all()
    # Finish the backlog and the final commits; this work is part of the
    # sustained-throughput window. Idle gaps (waiting for the next commit
    # interval or in-flight markers) are jumped, not crept through.
    driver.run_until_idle()
    elapsed = cluster.clock.now - start
    # Visibility tail (pure waiting for the last transaction markers):
    # counts toward latency, not throughput.
    cluster.clock.advance(10.0 + output_partitions * 0.5)
    _drain_outputs(cluster, sink_consumer, tracker, columnar=columnar_clients)

    result = BenchResult(
        label=label or f"{guarantee}/{output_partitions}p",
        records=generator.records_produced,
        elapsed_ms=elapsed,
        latency=tracker,
    )
    result.extra["markers_written"] = cluster.txn_coordinator.markers_written
    result.extra["commits"] = sum(i.commits_performed for i in app.instances)
    result.extra["outputs_observed"] = tracker.count
    result.extra["scheduler_cycles"] = driver.cycles
    result.extra["idle_skipped_ms"] = round(driver.idle_skipped_ms, 3)
    if trace:
        result.extra["stamped_outputs"] = tracker.stamped_count
        result.tracer = cluster.tracer
        result.telemetry = telemetry
    return result


class _SinkDrain:
    """Driver actor that drains the output topic into a LatencyTracker."""

    def __init__(self, cluster, consumer, tracker, columnar=False) -> None:
        self.cluster = cluster
        self.consumer = consumer
        self.tracker = tracker
        self.columnar = columnar

    def poll(self) -> int:
        return _drain_outputs(
            self.cluster, self.consumer, self.tracker, columnar=self.columnar
        )


def _drain_outputs(cluster, consumer, tracker, columnar=False) -> int:
    """Poll the output topic without charging verifier-side latency (the
    verifier is a separate observer machine in the paper's setup). With
    ``columnar`` the drain polls ColumnarBatches and feeds the tracker
    whole header columns — no per-record verifier work."""
    network = cluster.network
    was_charging = network.charge_latency
    network.charge_latency = False
    seen = 0
    try:
        if columnar:
            while True:
                batches = consumer.poll_batches(max_records=100_000)
                if not batches:
                    return seen
                now = cluster.clock.now
                for batch in batches:
                    tracker.record_batch_output(batch.headers(), now)
                    seen += batch.valid_count
        while True:
            records = consumer.poll(max_records=100_000)
            if not records:
                return seen
            now = cluster.clock.now
            for record in records:
                tracker.record_output(record, now)
                seen += 1
    finally:
        network.charge_latency = was_charging


def run_barrier_reduce(
    checkpoint_interval_ms: float = 1000.0,
    duration_ms: float = 3000.0,
    rate_per_sec: float = 10_000.0,
    input_partitions: int = 4,
    output_partitions: int = 10,
    key_space: int = 64,
    min_files: int = 4,
    seed: int = 101,
    label: Optional[str] = None,
) -> BenchResult:
    """The Flink-like baseline on the same reduce workload (Figure 5.b)."""
    duration_ms *= bench_scale()
    cluster = make_bench_cluster(seed)
    cluster.create_topic("input", input_partitions)
    cluster.create_topic("output", output_partitions)
    engine = BarrierEngine(
        cluster,
        source_topic="input",
        sink_topic="output",
        reduce_fn=lambda key, value, state: (state or 0) + value,
        checkpoint_interval_ms=checkpoint_interval_ms,
        min_files=min_files,
    )
    generator = WorkloadGenerator(
        cluster,
        "input",
        rate_per_sec=rate_per_sec,
        key_space=key_space,
        value_fn=lambda rng, i: 1,
        seed=seed,
    )
    sink_consumer = Consumer(
        cluster,
        ConsumerConfig(client_id="verifier", isolation_level=READ_COMMITTED),
    )
    sink_consumer.assign(cluster.partitions_for("output"))
    tracker = LatencyTracker()

    driver = Driver(cluster.clock)
    driver.register(engine)
    driver.register(_SinkDrain(cluster, sink_consumer, tracker))

    start = cluster.clock.now
    deadline = start + duration_ms
    slice_ms = min(checkpoint_interval_ms / 2, 25.0)
    while cluster.clock.now < deadline:
        generator.produce_for(slice_ms)
        driver.poll_all()
    # Finish the backlog and force a final checkpoint so the last outputs
    # commit and become visible.
    while driver.poll_all():
        pass
    engine.checkpoint()
    elapsed = cluster.clock.now - start
    cluster.clock.advance(10.0)
    _drain_outputs(cluster, sink_consumer, tracker)

    result = BenchResult(
        label=label or f"flink/{checkpoint_interval_ms:.0f}ms",
        records=generator.records_produced,
        elapsed_ms=elapsed,
        latency=tracker,
    )
    result.extra["checkpoints"] = engine.checkpoints_completed
    result.extra["object_store_puts"] = engine.store.puts
    result.extra["checkpoint_time_ms"] = engine.checkpoint_time_ms
    result.extra["scheduler_cycles"] = driver.cycles
    result.extra["idle_skipped_ms"] = round(driver.idle_skipped_ms, 3)
    return result

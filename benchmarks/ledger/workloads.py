"""The six ledger workloads.

Each workload is one class with the same four steps, called by
``run.py`` around its clocks:

``setup()``   everything before the timed region: cluster, topics, app
              start, preloaded tables/logs, warm-up, golden run
``run()``     the timed region: generator + system + verifier
``verify()``  outputs against the reference in ``check.py`` (untimed)

Inputs come from ``seed`` alone. Sizes at ``scale == 1.0`` are chosen so
one repetition (set-up + timed region + check) takes 1-1.5 CPU seconds on
the 2-core sandbox: a 15 s run then holds about ten repetitions, and it
is the number of repetitions, not their length, that lets the
per-segment estimator in ``run.py`` find a quiet moment for every segment.

The batch/columnar APIs (``StreamsConfig.batch_execution``,
``produce_for_columnar``, ``poll_batches``) are looked up by name: when a
later change removes them the workloads run on what is left, unchanged.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    COOPERATIVE,
    EXACTLY_ONCE,
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
    StreamsConfig,
)
from repro.metrics.latency import CREATED_AT_HEADER
from repro.metrics.registry import Histogram
from repro.obs import StageLatencyTracker
from repro.sim.invariants import InvariantSuite, InvariantViolation
from repro.sim.scenarios import ScenarioHarness
from repro.sim.scheduler import Driver
from repro.streams import KafkaStreams, StreamsBuilder, Suppressed, TimeWindows
from repro.workloads.generator import LatenessModel, WorkloadGenerator

import check
from tracing import NULL

HAS_BATCH_EXECUTION = "batch_execution" in {
    f.name for f in dataclasses.fields(StreamsConfig)
}


def streams_config(application_id: str, batch: bool = False, **kwargs) -> StreamsConfig:
    if batch and HAS_BATCH_EXECUTION:
        kwargs["batch_execution"] = True
    return StreamsConfig(
        application_id=application_id,
        processing_guarantee=EXACTLY_ONCE,
        commit_interval_ms=100.0,
        **kwargs,
    )


@contextmanager
def observing(cluster, rec):
    """The verifier is an observer on another machine: its fetches are a
    "verifier" span on the host clock and charge no virtual time."""
    network = cluster.network
    was_charging = network.charge_latency
    network.charge_latency = False
    try:
        with rec.span("verifier"):
            yield
    finally:
        network.charge_latency = was_charging


class Verifier:
    """Read-committed tail of the output topic, registered with the driver
    as an actor: notes when each result first becomes visible. Columnar
    when asked to and when the consumer still can."""

    def __init__(self, cluster, topic: str, rec, columnar: bool = False) -> None:
        self.cluster = cluster
        self.rec = rec
        self.tracker = StageLatencyTracker()
        self.consumer = Consumer(
            cluster,
            ConsumerConfig(client_id="ledger-verifier", isolation_level=READ_COMMITTED),
        )
        self.consumer.assign(cluster.partitions_for(topic))
        self._poll_batches = (
            getattr(self.consumer, "poll_batches", None) if columnar else None
        )

    def poll(self) -> int:
        with observing(self.cluster, self.rec):
            return self._drain()

    def _drain(self) -> int:
        seen = 0
        tracker = self.tracker
        clock = self.cluster.clock
        if self._poll_batches is not None:
            while True:
                batches = self._poll_batches(max_records=100_000)
                if not batches:
                    return seen
                now = clock.now
                for batch in batches:
                    seen += tracker.record_batch_output(batch.headers(), now)
        while True:
            records = self.consumer.poll(max_records=100_000)
            if not records:
                return seen
            now = clock.now
            for record in records:
                tracker.record_output(record, now)
            seen += len(records)


class LapActor:
    """Driver actor that ends a timing segment once per scheduler cycle."""

    def __init__(self, workload: "Workload") -> None:
        self._lap = workload.lap

    def poll(self) -> int:
        self._lap()
        return 0


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    # Whether records carry the repo's per-stage header stamps when its
    # tracer is on (the scalar Streams path does; batches and plain
    # clients do not).
    stamps_stages = False

    def __init__(self, seed: int, scale: float = 1.0, rec=NULL,
                 stage_stamps: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.rec = rec
        self.stage_stamps = stage_stamps
        self.cluster: Optional[Cluster] = None
        self.app: Optional[KafkaStreams] = None
        self.drivers: List[Driver] = []
        self.records = 0            # records completed in the timed region
        self.virtual_ms = 0.0       # first produce -> drained and committed
        self.latency: Histogram = Histogram("latency")
        self.stage_means: Dict[str, float] = {}
        self.recovery: Dict[str, float] = {}
        self.outputs: List[Any] = []   # committed rows, filled by verify()
        self.laps: List[float] = []    # CPU clock at segment boundaries

    def lap(self) -> None:
        """End a timing segment. The simulation is deterministic, so
        segment k does the same work in every repetition; ``run.py`` keeps
        each segment's fastest time (see README, "Why fastest")."""
        self.laps.append(time.process_time())

    def _cluster(self) -> Cluster:
        cluster = Cluster(num_brokers=3, seed=self.seed)
        if self.stage_stamps:
            cluster.enable_tracing()
        self.cluster = cluster
        return cluster

    def scaled(self, value: float, floor: float = 1.0) -> float:
        return max(floor, value * self.scale)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> check.Check:
        raise NotImplementedError

    def input_records(self) -> int:
        """Records the system took in over the whole repetition (the base
        of per-record ratios such as results per record)."""
        return self.records

    def output_rows(self) -> int:
        return len(self.outputs)


# -- Streams pipelines driven by the repo's rate generator --------------------


class _Pipeline(Workload):
    """generator -> app -> read-committed verifier on one Driver; the
    generator offers more than the serialised clock sustains, so the loop
    is closed and throughput is capacity."""

    output_topic = "output"
    rate_per_sec = 10_000.0
    duration_ms = 6_000.0
    warmup_ms = 500.0
    columnar = False
    instances = 1

    def build_app(self, cluster) -> KafkaStreams:
        raise NotImplementedError

    def make_generator(self, cluster) -> WorkloadGenerator:
        raise NotImplementedError

    def preload(self, cluster) -> None:
        """Inputs that must be in place before events flow."""

    def setup(self) -> None:
        cluster = self._cluster()
        self.preload(cluster)
        self.app = self.build_app(cluster)
        self.app.start(self.instances)
        self.generator = self.make_generator(cluster)
        produce = (
            getattr(self.generator, "produce_for_columnar", None)
            if self.columnar else None
        )
        self.produce_slice = produce or self.generator.produce_for
        self.verifier = Verifier(cluster, self.output_topic, self.rec, self.columnar)
        self.driver = Driver(cluster.clock, tracer=cluster.tracer)
        self.driver.register(self.app)
        self.driver.register(self.verifier)
        self.driver.register(LapActor(self))
        self.drivers = [self.driver]
        # Warm-up: group join, task creation, transaction init and the
        # preloaded tables are paid here, not in the timed region. Tables
        # first: an event that overtakes its table row would not join.
        self.driver.run_until_idle()
        self.produce_slice(self.warmup_ms)
        self.driver.run_until_idle()
        self.verifier.poll()
        self.verifier.tracker = StageLatencyTracker()
        self._warmup_records = self.generator.records_produced

    def run(self) -> None:
        cluster, driver, rec = self.cluster, self.driver, self.rec
        clock = cluster.clock
        start = clock.now
        deadline = start + self.scaled(self.duration_ms, 400.0)
        produce_slice = self.produce_slice
        while clock.now < deadline:
            with rec.span("loadgen"):
                produce_slice(25.0)
            driver.poll_all()
        with rec.span("loadgen"):
            self.finish_load()
        driver.run_until_idle()
        self.virtual_ms = clock.now - start
        # Visibility tail: the last transaction's markers are still in
        # flight; counts toward latency, not throughput.
        clock.advance(25.0)
        self.verifier.poll()
        self.records = self.generator.records_produced - self._warmup_records
        tracker = self.verifier.tracker
        self.latency = tracker.histogram
        self.stage_means = tracker.breakdown()

    def finish_load(self) -> None:
        """End-of-stream inputs, if the workload needs any."""

    def input_records(self) -> int:
        return self.generator.records_produced


class ReduceEosScalar(_Pipeline):
    """The paper's Figure 5 experiment: 4 -> 10 partitions, stateful
    reduce, exactly-once, 100 ms commit interval, one instance."""

    name = "reduce_eos_scalar"
    stamps_stages = True
    key_space = 64

    def build_app(self, cluster) -> KafkaStreams:
        cluster.create_topic("input", 4)
        cluster.create_topic("output", 10)
        builder = StreamsBuilder()
        (
            builder.stream("input")
            .group_by_key()
            .reduce(lambda aggregate, value: aggregate + value)
            .to_stream()
            .to("output")
        )
        return KafkaStreams(
            builder.build(), cluster, streams_config("ledger", batch=self.columnar)
        )

    def make_generator(self, cluster) -> WorkloadGenerator:
        return WorkloadGenerator(
            cluster, "input", rate_per_sec=self.rate_per_sec,
            key_space=self.key_space, value_fn=lambda rng, i: 1 + i % 9,
            seed=self.seed,
        )

    def verify(self) -> check.Check:
        self.outputs = check.committed_rows(self.cluster, "output")
        return check.check_fold(
            check.input_records(self.cluster, "input"), self.outputs,
            lambda aggregate, value: aggregate + value,
        )


class ReduceEosColumnar(ReduceEosScalar):
    """Same topology through the batch path: columnar generator, batch
    execution, columnar verifier. Twice the virtual duration, because a
    record costs a quarter of the CPU here."""

    name = "reduce_eos_columnar"
    stamps_stages = not HAS_BATCH_EXECUTION
    columnar = True
    duration_ms = 12_000.0


class WindowJoinOoo(_Pipeline):
    """Section 5's completeness path: events joined to a 2 000-key
    profile table, re-keyed by the profile's segment, counted in 250 ms
    tumbling windows with 500 ms grace, final results only; 30 % of events
    arrive late. Batch execution is requested and, today, refused by every
    task (joins, windows and suppression are scalar-only)."""

    name = "window_join_ooo"
    stamps_stages = not HAS_BATCH_EXECUTION   # columnar fetches carry no stamps
    output_topic = "counts"
    rate_per_sec = 5_000.0
    duration_ms = 10_000.0
    columnar = True
    instances = 2
    users = 2_000
    segments = 100
    window_ms = 250.0
    grace_ms = 500.0

    def preload(self, cluster) -> None:
        cluster.create_topic("events", 4)
        cluster.create_topic("profiles", 4)
        cluster.create_topic("counts", 4)
        producer = Producer(cluster, ProducerConfig(client_id="ledger-profiles"))
        for user in range(self.users):
            producer.send(
                "profiles", key=f"u-{user}",
                value={"segment": f"s{user % self.segments:02d}"}, timestamp=0.0,
            )
        producer.close()

    def build_app(self, cluster) -> KafkaStreams:
        builder = StreamsBuilder()
        profiles = builder.table("profiles", store_name="profiles")
        (
            builder.stream("events")
            .join(profiles, lambda event, profile: profile["segment"])
            .select_key(lambda user, segment: segment)
            .group_by_key()
            .windowed_by(TimeWindows.of(self.window_ms).grace(self.grace_ms))
            .count(store_name="segment-counts")
            .suppress(Suppressed.until_window_closes())
            .to_stream()
            .to("counts")
        )
        return KafkaStreams(
            builder.build(), cluster, streams_config("ledger", batch=True)
        )

    def make_generator(self, cluster) -> WorkloadGenerator:
        return WorkloadGenerator(
            cluster, "events", rate_per_sec=self.rate_per_sec,
            key_space=self.users, key_prefix="u",
            lateness=LatenessModel(late_fraction=0.3, mean_late_ms=200.0,
                                   max_late_ms=2_000.0),
            seed=self.seed,
        )

    def finish_load(self) -> None:
        """Close every window: once the real events are fully processed,
        one far-future event per segment advances every aggregating
        task's stream time past the last real window's grace."""
        self.driver.run_until_idle()
        clock = self.cluster.clock
        self._sentinel_ts = clock.now + 10 * (self.window_ms + self.grace_ms)
        producer = self.generator.producer
        for segment in range(self.segments):
            producer.send(
                "events", key=f"u-{segment}", value=-1,
                timestamp=self._sentinel_ts,
                headers={CREATED_AT_HEADER: clock.now},
            )
        producer.flush()

    def input_records(self) -> int:
        return self.generator.records_produced + self.segments

    def verify(self) -> check.Check:
        self.outputs = check.committed_rows(self.cluster, "counts")
        offline: Dict[Any, int] = {}
        for record in check.input_records(self.cluster, "events"):
            if record.timestamp == self._sentinel_ts:
                continue
            user = int(record.key[2:])
            start = (record.timestamp // self.window_ms) * self.window_ms
            cell = (f"s{user % self.segments:02d}", start)
            offline[cell] = offline.get(cell, 0) + 1
        return check.check_final_windows(
            offline, self.outputs, self.app.metric_total("dropped_records")
        )


# -- transactions without Streams ---------------------------------------------


class TxnWriter:
    """Four transactional producers writing in waves of concurrent
    transactions (so open transactions overlap on every partition and the
    last stable offset does real work); every ``abort_every``-th
    transaction aborts. Values are the global record index."""

    def __init__(self, cluster, topic: str, seed: int, producers: int = 4,
                 txn_size: int = 200, abort_every: int = 7) -> None:
        self.cluster = cluster
        self.topic = topic
        self.txn_size = txn_size
        self.abort_every = abort_every
        self.rng = random.Random(seed)
        self.producers = []
        for i in range(producers):
            producer = Producer(
                cluster,
                ProducerConfig(client_id=f"ledger-txn-{i}",
                               transactional_id=f"ledger-txn-{i}"),
            )
            producer.init_transactions()
            self.producers.append(producer)
        self.committed: List[int] = []
        self.aborted: List[int] = []
        self.written = 0
        self._txn_no = 0

    def write_wave(self) -> None:
        clock = self.cluster.clock
        topic, rng = self.topic, self.rng
        producers = self.producers
        lanes = []
        for producer in producers:
            producer.begin_transaction()
            lanes.append([])
        index = self.written
        for _ in range(self.txn_size):
            for producer, lane in zip(producers, lanes):
                producer.send(
                    topic, key=rng.randrange(4096), value=index,
                    headers={CREATED_AT_HEADER: clock.now},
                )
                lane.append(index)
                index += 1
        self.written = index
        for producer, lane in zip(producers, lanes):
            self._txn_no += 1
            if self._txn_no % self.abort_every == 0:
                producer.abort_transaction()
                self.aborted.extend(lane)
            else:
                producer.commit_transaction()
                self.committed.extend(lane)

    def write(self, total_records: int, after_wave=None) -> None:
        while self.written < total_records:
            self.write_wave()
            if after_wave is not None:
                after_wave()


class _ValueTail:
    """Read-committed tail that keeps the values it saw and when."""

    def __init__(self, cluster, topic: str, rec, isolation: str = READ_COMMITTED):
        self.cluster = cluster
        self.rec = rec
        self.consumer = Consumer(
            cluster,
            ConsumerConfig(client_id="ledger-verifier", isolation_level=isolation),
        )
        self.consumer.assign(cluster.partitions_for(topic))
        self.seen: List[int] = []
        self.latency = Histogram("latency")

    def poll(self) -> None:
        with observing(self.cluster, self.rec):
            clock = self.cluster.clock
            while True:
                records = self.consumer.poll(max_records=100_000)
                if not records:
                    return
                now = clock.now
                self.seen.extend(r.value for r in records)
                self.latency.observe_many(
                    [now - r.headers[CREATED_AT_HEADER] for r in records]
                )


class TxnWrite(Workload):
    """No Streams: transactional producers -> coordinator and markers ->
    log appends on 32 partitions x 3 replicas, a read-committed verifier
    tailing."""

    name = "txn_write"
    total_records = 40_000
    warmup_records = 2 * 4 * 200
    partitions = 32
    isolation = READ_COMMITTED

    def setup(self) -> None:
        cluster = self._cluster()
        cluster.create_topic("txn", self.partitions)
        self.writer = TxnWriter(cluster, "txn", self.seed)
        self.tail = _ValueTail(cluster, "txn", self.rec, self.isolation)
        # Warm-up: transaction init, routing caches and first batches.
        self.writer.write(self.warmup_records, after_wave=self._after_wave)
        self.tail.latency = Histogram("latency")

    def _after_wave(self) -> None:
        self.tail.poll()
        self.lap()

    def run(self) -> None:
        clock = self.cluster.clock
        start = clock.now
        total = int(self.scaled(self.total_records, 4 * 4 * 200))
        with self.rec.span("loadgen"):
            self.writer.write(self.warmup_records + total, after_wave=self._after_wave)
        # The last wave's markers land on clock timers a few ms out.
        clock.advance(50.0)
        self.virtual_ms = clock.now - start
        self.tail.poll()
        self.records = self.writer.written - self.warmup_records
        self.latency = self.tail.latency

    def input_records(self) -> int:
        return self.writer.written

    def verify(self) -> check.Check:
        return check.check_read_set(
            self.writer.committed, self.writer.aborted, self.tail.seen
        )

    def output_rows(self) -> int:
        return len(self.tail.seen)


class TxnRead(Workload):
    """Reads beside txn_write's writes on the same log and broker code:
    set-up writes the transactional log, the timed region is full
    read-committed passes over it with ``Consumer.poll(500)``. Latency is
    the virtual round trip of one poll."""

    name = "txn_read"
    # ~640 committed records a partition: two fetches of 500 each, well
    # away from the boundary where a seed's key spread changes the count.
    log_records = 24_000
    passes = 24
    partitions = 32

    def setup(self) -> None:
        cluster = self._cluster()
        cluster.create_topic("txn", self.partitions)
        self.writer = TxnWriter(cluster, "txn", self.seed)
        self.writer.write(
            int(self.scaled(self.log_records, 4 * 4 * 200)), after_wave=self.lap
        )
        cluster.clock.advance(50.0)

    def run(self) -> None:
        cluster = self.cluster
        clock = cluster.clock
        start = clock.now
        latency = Histogram("latency")
        observe = latency.observe
        self.pass_values: List[List[int]] = []
        records = 0
        for index in range(max(2, int(self.passes * self.scale))):
            consumer = Consumer(
                cluster,
                ConsumerConfig(client_id=f"ledger-reader-{index}",
                               isolation_level=READ_COMMITTED),
            )
            consumer.assign(cluster.partitions_for("txn"))
            values: List[int] = []
            while True:
                before = clock.now
                batch = consumer.poll(500)
                observe(clock.now - before)
                self.lap()
                if not batch:
                    break
                with self.rec.span("verifier"):
                    values.extend(r.value for r in batch)
            consumer.close()
            records += len(values)
            self.pass_values.append(values)
        self.virtual_ms = clock.now - start
        self.records = records
        self.latency = latency

    def verify(self) -> check.Check:
        # The log is static, so passes normally read identical lists; only
        # a pass that differs needs its own multiset comparison.
        reference = self.pass_values[0]
        same = check.check_read_set(
            self.writer.committed, self.writer.aborted, reference
        )
        expected = failed = 0
        for values in self.pass_values:
            result = same if values == reference else check.check_read_set(
                self.writer.committed, self.writer.aborted, values
            )
            expected += result.expected
            failed += result.failed
        return check.Check(expected, failed, f"{len(self.pass_values)} passes")

    def input_records(self) -> int:
        return self.writer.written

    def output_rows(self) -> int:
        return self.records


# -- exactly-once under failure -------------------------------------------------


def _running_max(aggregate, value):
    return aggregate if aggregate >= value else value


class FailoverEos(Workload):
    """The paper's consistency claim under failure: a running-max reduce
    over 2 000 keys on two instances, one of which crashes a third of the
    way through the horizon and is replaced. The fault-free golden run is
    built in set-up; the faulted run must commit exactly the same rows."""

    name = "failover_eos"
    stamps_stages = True
    keys = 2_000
    total_records = 24_000
    horizon_ms = 3_200.0
    # 100 records every 4 virtual ms. Coarser pacing (24 bursts of 1 000)
    # aliases with the 100 ms commit interval: latencies bunch at a few
    # values and the median jumps 14 % from seed to seed.
    slices = 240
    chaos_seed = 7

    def _build(self, cluster) -> KafkaStreams:
        cluster.create_topic("in", 4)
        cluster.create_topic("out", 4)
        builder = StreamsBuilder()
        (
            builder.stream("in")
            .group_by_key()
            .reduce(_running_max, store_name="maxes")
            .to_stream()
            .to("out")
        )
        app = KafkaStreams(
            builder.build(), cluster,
            # Cooperative rebalancing (KIP-429), unthrottled restores: the
            # configuration on which every seed tried (440) reproduces the
            # golden output. Two others did not, and a benchmark workload
            # must be one on which nothing fails; both are defects for a
            # later robustness PR. Eager protocol: when the replacement
            # joins, the revocation barrier commits the old owner's
            # in-flight work and the new owner reads the committed offsets
            # before that commit's markers land, so it reprocesses one
            # record per moved partition (2 seeds in 40 duplicated a row).
            # restore_max_records_per_poll=500: 3 seeds in 10 committed
            # ~950 rows twice on one partition.
            streams_config("ledger-failover", transaction_timeout_ms=300.0,
                           rebalance_protocol=COOPERATIVE),
        )
        app.start(2)
        return app

    def _paced_producer(self, cluster):
        """``produce(i)`` sends slice ``i`` of the seed's record stream."""
        total = int(self.scaled(self.total_records, 10 * self.slices))
        per_slice = total // self.slices
        self._total = per_slice * self.slices
        rng = random.Random(self.seed)
        keys = [f"k{rng.randrange(self.keys)}" for _ in range(self._total)]
        values = [rng.randrange(1_000_000) for _ in range(self._total)]
        producer = Producer(cluster, ProducerConfig(client_id="ledger-paced"))
        clock = cluster.clock
        rec = self.rec

        def produce(index: int) -> None:
            with rec.span("loadgen"):
                begin = index * per_slice
                for i in range(begin, begin + per_slice):
                    producer.send(
                        "in", key=keys[i], value=values[i], timestamp=float(i),
                        headers={CREATED_AT_HEADER: clock.now},
                    )
                producer.flush()

        return produce

    def setup(self) -> None:
        horizon = self.scaled(self.horizon_ms, 600.0)
        # Golden: the same paced inputs, no fault. Built untraced.
        rec, self.rec = self.rec, NULL
        golden_cluster = Cluster(num_brokers=3, seed=self.seed)
        app = self._build(golden_cluster)
        produce = self._paced_producer(golden_cluster)
        slice_ms = 0.3 * horizon / self.slices
        app.driver.register(LapActor(self))
        for index in range(self.slices):
            produce(index)
            app.run_for(slice_ms)
        app.run_until_idle(max_steps=50_000)
        self.golden = check.committed_rows(golden_cluster, "out")
        self._golden_inputs = check.input_records(golden_cluster, "in")
        self.rec = rec

        cluster = self._cluster()
        self.app = self._build(cluster)
        self.produce = self._paced_producer(cluster)
        self.verifier = Verifier(cluster, "out", self.rec)
        self.app.driver.register(self.verifier)
        self.app.driver.register(LapActor(self))
        self.drivers = [self.app.driver]
        self.invariant = check.GoldenOutput("out", self.golden)
        # The fault script is part of the workload, not of its inputs: the
        # same instance is lost at the same point whatever the seed.
        self.harness = ScenarioHarness(
            cluster, self.app, "instance_loss", self.chaos_seed,
            invariants=InvariantSuite([self.invariant]), horizon_ms=horizon,
        )

    def run(self) -> None:
        clock = self.cluster.clock
        start = clock.now
        self.converged = False
        converged_at = None
        try:
            cell = self.harness.run(
                golden_invariant=self.invariant,
                workload=self.produce,
                workload_slices=self.slices,
            )
        except InvariantViolation:
            pass    # never converged; verify() counts what differs
        else:
            self.converged = cell.converged
            converged_at = cell.converged_at_ms
            self.recovery = dict(cell.recovery or {})
        self.virtual_ms = (converged_at or clock.now) - start
        self.verifier.poll()
        self.records = self._total
        tracker = self.verifier.tracker
        self.latency = tracker.histogram
        self.stage_means = tracker.breakdown()

    def verify(self) -> check.Check:
        self.outputs = check.committed_rows(self.cluster, "out")
        faulted = check.check_multiset(self.golden, self.outputs)
        golden = check.check_fold(self._golden_inputs, self.golden, _running_max)
        failed = faulted.failed + golden.failed + (0 if self.converged else 1)
        return check.Check(faulted.expected, failed,
                           f"{faulted.detail}; golden vs fold {golden.failed}")


WORKLOADS = {
    cls.name: cls
    for cls in (ReduceEosScalar, ReduceEosColumnar, WindowJoinOoo,
                TxnWrite, TxnRead, FailoverEos)
}

"""The layer ladder (ROADMAP perf item (c)).

The same records go through successively taller stacks; each rung is CPU
microseconds per record, so the difference between two rungs is the
marginal cost of the layer added. The top rung of each ladder is the
workload itself (``1e6 / host_records_per_s`` of the untraced repetition
measured in the same process), so the column adds up to the end-to-end
figure by construction.

write (txn_write):   PartitionLog.append_batch -> Cluster.handle_produce
                     (replication, high watermark) -> idempotent Producer
                     (partitioning, batching, Network.call) -> transactions
read (txn_read):     PartitionLog.read -> Cluster.handle_fetch (LSO, aborted
                     filter) -> Consumer.poll (routing, copies); and the
                     columnar twins while they exist
streams (reduce_eos_scalar):  pass-through topology -> stateful reduce

Rungs run untraced with GC deferred.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import READ_COMMITTED, ConsumerConfig, ProducerConfig
from repro.log.partition_log import PartitionLog
from repro.log.record import Record, RecordBatch
from repro.streams import KafkaStreams, StreamsBuilder
from repro.util import partition_for

import check
import workloads


def _cpu_us_per_record(fn: Callable[[], int]) -> float:
    """Run ``fn`` (which returns how many records it moved) with GC
    deferred; CPU microseconds per record."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        records = fn()
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    return 1e6 * elapsed / records if records else 0.0


# -- write ----------------------------------------------------------------------


try:  # the batch type the producer hands down, while it exists
    from repro.log.columnar import ColumnarSlab
except ImportError:
    ColumnarSlab = None


def _producer_batch(keys: List[int], values: List[int], base_sequence: int):
    """One idempotent producer batch, in the form ``Producer`` builds."""
    if ColumnarSlab is not None:
        return ColumnarSlab(
            keys, values, [0.0] * len(keys), [{} for _ in keys],
            producer_id=1, producer_epoch=0, base_sequence=base_sequence,
        )
    return RecordBatch(
        [Record(key=k, value=v) for k, v in zip(keys, values)],
        producer_id=1, producer_epoch=0, base_sequence=base_sequence,
    )


def _write_batches(seed: int, total: int, partitions: int, chunk: int = 200):
    """txn_write's record stream, grouped the way a producer batches it:
    per 200-record chunk, one batch per partition. Yields
    (partition, batch)."""
    rng = random.Random(seed)
    sequences = [0] * partitions
    index = 0
    while index < total:
        columns: Dict[int, tuple] = {}
        for _ in range(chunk):
            key = rng.randrange(4096)
            keys, values = columns.setdefault(
                partition_for(key, partitions), ([], [])
            )
            keys.append(key)
            values.append(index)
            index += 1
        for p, (keys, values) in columns.items():
            yield p, _producer_batch(keys, values, sequences[p])
            sequences[p] += len(keys)


def write_ladder(seed: int, total: int, partitions: int = 32) -> Dict[str, float]:
    def log_rung() -> int:
        logs = [PartitionLog(f"ladder-{p}") for p in range(partitions)]
        for p, batch in _write_batches(seed, total, partitions):
            logs[p].append_batch(batch)
        return sum(len(log) for log in logs)

    def broker_rung() -> int:
        cluster = Cluster(num_brokers=3, seed=seed)
        cluster.create_topic("ladder", partitions)
        tps = [TopicPartition("ladder", p) for p in range(partitions)]
        for p, batch in _write_batches(seed, total, partitions):
            cluster.handle_produce(tps[p], batch)
        return total

    def clients_rung() -> int:
        cluster = Cluster(num_brokers=3, seed=seed)
        cluster.create_topic("ladder", partitions)
        producer = Producer(cluster, ProducerConfig(client_id="ladder"))
        rng = random.Random(seed)
        for index in range(total):
            producer.send("ladder", key=rng.randrange(4096), value=index)
            if index % 200 == 199:
                producer.flush()
        producer.flush()
        return producer.records_sent

    return {
        "ladder.write.log_us": _cpu_us_per_record(log_rung),
        "ladder.write.broker_us": _cpu_us_per_record(broker_rung),
        "ladder.write.clients_us": _cpu_us_per_record(clients_rung),
    }


# -- read -------------------------------------------------------------------------


def read_ladder(workload: "workloads.TxnRead") -> Dict[str, float]:
    """Rungs below the client over the log that ``workload.setup()`` built,
    each making as many full passes as the workload does; microseconds per
    *committed* record, the unit of the top rung."""
    cluster = workload.cluster
    tps = cluster.partitions_for("txn")
    logs = [cluster.partition_state(tp).leader_log() for tp in tps]
    committed = len(workload.writer.committed)
    passes = len(workload.pass_values)
    page = 500
    rungs: Dict[str, float] = {}

    def per_committed(one_pass: Callable[[], None]) -> float:
        def counted() -> int:
            for _ in range(passes):
                one_pass()
            return committed * passes
        return _cpu_us_per_record(counted)

    def log_rung() -> None:
        for log in logs:
            position, limit = log.log_start_offset, log.last_stable_offset
            while position < limit:
                chunk = log.read(position, max_records=page, up_to_offset=limit)
                position = chunk[-1].offset + 1

    def broker_rung(handle) -> Callable[[], None]:
        def rung() -> None:
            for tp in tps:
                position = 0
                while True:
                    result = handle(tp, position, page, READ_COMMITTED)
                    if result.next_offset == position:
                        break
                    position = result.next_offset
        return rung

    def clients_columnar_rung() -> None:
        consumer = Consumer(
            cluster,
            ConsumerConfig(client_id="ladder", isolation_level=READ_COMMITTED),
        )
        consumer.assign(tps)
        while consumer.poll_batches(page):
            pass
        consumer.close()

    rungs["ladder.read.log_us"] = per_committed(log_rung)
    rungs["ladder.read.broker_us"] = per_committed(broker_rung(cluster.handle_fetch))
    if hasattr(PartitionLog, "read_columnar"):
        def log_columnar_rung() -> None:
            for log in logs:
                position, limit = log.log_start_offset, log.last_stable_offset
                while position < limit:
                    position = log.read_columnar(
                        position, max_records=page, up_to_offset=limit,
                        filter_aborted=True,
                    ).next_offset
        rungs["ladder.read.log_columnar_us"] = per_committed(log_columnar_rung)
    if hasattr(cluster, "handle_fetch_columnar"):
        rungs["ladder.read.broker_columnar_us"] = per_committed(
            broker_rung(cluster.handle_fetch_columnar)
        )
    if hasattr(Consumer, "poll_batches"):
        rungs["ladder.read.clients_columnar_us"] = per_committed(clients_columnar_rung)
    return rungs


# -- streams --------------------------------------------------------------------


class Passthrough(workloads.ReduceEosScalar):
    """reduce_eos_scalar's generator, clients, runtime and commit cycle
    with no operator and no state: ``stream(input).to(output)``."""

    name = "passthrough"

    def build_app(self, cluster) -> KafkaStreams:
        cluster.create_topic("input", 4)
        cluster.create_topic("output", 10)
        builder = StreamsBuilder()
        builder.stream("input").to("output")
        return KafkaStreams(
            builder.build(), cluster, workloads.streams_config("ledger")
        )

    def verify(self) -> check.Check:
        self._outputs = check.committed_rows(self.cluster, "output")
        return check.check_fold(
            check.input_records(self.cluster, "input"), self._outputs,
            lambda previous, value: value,
        )

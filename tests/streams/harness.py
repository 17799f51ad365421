"""Shared helpers for streams-layer tests."""

from typing import Any, Dict, List, Optional
from unittest import mock

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import READ_COMMITTED, ConsumerConfig, StreamsConfig
from repro.streams.processor import (
    PUNCTUATION_STREAM_TIME,
    Processor,
    ProcessorContext,
)
from repro.streams.records import StreamRecord
from repro.streams.runtime.task import StreamTask


def make_cluster(**topics) -> Cluster:
    """A latency-free cluster with the given {topic: partitions}."""
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    for topic, partitions in topics.items():
        cluster.create_topic(topic, partitions)
    return cluster


def drain_topic(cluster: Cluster, topic: str, read_committed: bool = True):
    """Every currently visible record in ``topic``."""
    consumer = Consumer(
        cluster,
        ConsumerConfig(
            isolation_level=READ_COMMITTED if read_committed else "read_uncommitted"
        ),
    )
    consumer.assign(cluster.partitions_for(topic))
    records = []
    while True:
        batch = consumer.poll(max_records=100_000)
        if not batch:
            return records
        records.extend(batch)


def record_path():
    """Context manager: every StreamTask built inside runs record at a
    time, whatever its topology could take — the reference side of the
    chunk-vs-record equivalence tests. Patched in from the test side on
    purpose: the product has no switch that selects the path."""
    return mock.patch.object(
        StreamTask, "_fallback_reason", lambda task: "forced by the test"
    )


class Ticker(Processor):
    """Forwards every record unchanged and keeps a stream-time punctuator,
    which needs per-record stream time: a sub-topology holding one falls
    back to the record path by construction."""

    def init(self, context):
        super().init(context)
        context.schedule(50.0, PUNCTUATION_STREAM_TIME, lambda now: None)

    def process(self, record):
        self.context.forward(record)


def latest_by_key(records) -> Dict[Any, Any]:
    """Collapse a changelog-style record list to its final value per key."""
    out: Dict[Any, Any] = {}
    for record in records:
        out[record.key] = record.value
    return out


class FakeTask:
    """Minimal stand-in for StreamTask so processors can be unit-tested."""

    def __init__(self, stores: Optional[Dict[str, Any]] = None):
        self._stores = stores or {}
        self.forwarded: List[tuple] = []
        self.punctuations: List[Any] = []
        self.stream_time = float("-inf")
        self.task_id = "fake-0"
        self.application_id = "test-app"
        self._sink = None

    def process_at(self, node_name: str, record: StreamRecord) -> None:
        self.forwarded.append((node_name, record))

    def state_store(self, name: str):
        return self._stores[name]

    def register_punctuation(self, punctuation) -> None:
        self.punctuations.append(punctuation)

    def punctuate(self, punctuation_type: str, now: float) -> None:
        for punctuation in self.punctuations:
            if punctuation.punctuation_type == punctuation_type:
                punctuation.maybe_fire(now)


def init_processor(processor, stores=None, children=("child",)):
    """Wire a processor to a FakeTask; returns (processor, task)."""
    task = FakeTask(stores)
    context = ProcessorContext(
        task=task,
        node_name="node-under-test",
        children=list(children),
        store_names=list(stores or {}),
    )
    processor.init(context)
    return processor, task


def forwarded_records(task: FakeTask) -> List[StreamRecord]:
    return [record for _, record in task.forwarded]

"""Shared helpers for streams-layer tests."""

from contextlib import ExitStack, contextmanager
from typing import Any, Dict, List, Optional
from unittest import mock

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import READ_COMMITTED, ConsumerConfig, StreamsConfig
from repro.streams.processor import (
    FusedStatelessProcessor,
    Processor,
    ProcessorContext,
)
from repro.streams.records import ColumnChunk, StreamRecord
from repro.streams.runtime.instance import StreamsInstance
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore
from repro.streams.topology import ProcessorNode, SinkNode


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


def stored_headers(cluster: Cluster):
    """Every header mapping of every stored batch of every replica of
    every partition, internal topics included — straight off the stored
    batches, so a writer that bypassed the log's append path shows."""
    for state in cluster.partition_states().values():
        if state.leader is not None:
            state.replica_log(state.leader)     # pay any owed follower sync
        for log in state._replicas.values():
            for batch in log._batches:
                yield from batch.headers


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextmanager
def record_path():
    """Context manager: every processor built inside handles its chunks
    with the base walk (one ``process`` call per position), whatever
    vectorised ``process_batch`` it has — the reference side of the
    equivalence tests. Patched in from the test side on purpose: the
    product has no switch that selects it."""
    fused_init = FusedStatelessProcessor.__init__

    def init_without_binding(self, kind, fn):
        fused_init(self, kind, fn)
        del self.process_batch      # bound per instance, over the class's

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(
                FusedStatelessProcessor, "__init__", init_without_binding
            )
        )
        for cls in _subclasses(Processor):
            if "process_batch" in vars(cls):
                stack.enter_context(
                    mock.patch.object(
                        cls, "process_batch", Processor.process_batch
                    )
                )
        yield


@contextmanager
def sync_every_step():
    """Context manager: every ``StreamsInstance.step`` inside re-derives
    task and standby placement whether or not an epoch moved — the loop as
    it ran before placement was synced on change, and the reference side
    of ``test_placement_sync``. Patched in from the test side on purpose:
    the product has no switch that selects it."""
    step = StreamsInstance.step

    def forgetful_step(self):
        self._synced_epochs = None
        return step(self)

    with mock.patch.object(StreamsInstance, "step", forgetful_step):
        yield


class Ticker(Processor):
    """Forwards every record unchanged: a scalar-only operator, so its
    chunks go through the base ``process_batch`` walk."""

    def process(self, record):
        self.context.forward(record)


def vectorised(processor) -> bool:
    """Whether ``processor`` has a column routine of its own, rather than
    the base walk through ``process`` (read off the instance:
    ``FusedStatelessProcessor`` binds its routine per instance)."""
    return processor.process_batch.__func__ is not Processor.process_batch


def merge_by_timestamp(queues, timestamp):
    """The record-at-a-time choice, test side: repeatedly take the head of
    the non-empty queue whose head ``timestamp(item)`` is smallest, sorted
    partition order on ties, FIFO within a queue. ``queues`` maps tp ->
    list of items; returns [(tp, item)]."""
    heads = {tp: 0 for tp in queues}
    merged = []
    while True:
        live = [tp for tp in sorted(queues) if heads[tp] < len(queues[tp])]
        if not live:
            return merged
        best = min(live, key=lambda tp: timestamp(queues[tp][heads[tp]]))
        merged.append((best, queues[best][heads[best]]))
        heads[best] += 1


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
        self.stream_time = float("-inf")
        self.task_id = "fake-0"
        self.application_id = "test-app"
        self._sink = None

    def process_chunk_at(self, node_name: str, chunk) -> None:
        self.forwarded.extend(
            (node_name, StreamRecord(*fields))
            for fields in zip(
                chunk.keys, chunk.values, chunk.timestamps, chunk.headers
            )
        )

    def state_store(self, name: str):
        return self._stores[name]


class EagerContext(ProcessorContext):
    """Context of a processor that a test drives by hand: no runtime
    drains it after each call, so every forward is handed on at once."""

    def forward(self, record):
        super().forward(record)
        self.drain()


def init_processor(processor, stores=None, children=("child",)):
    """Wire a processor to a FakeTask; returns (processor, task)."""
    task = FakeTask(stores)
    context = EagerContext(
        task=task,
        node_name="node-under-test",
        children=list(children),
        store_names=list(stores or {}),
    )
    processor.init(context)
    return processor, task


def forwarded_records(task: FakeTask) -> List[StreamRecord]:
    return [record for _, record in task.forwarded]


class ReferenceTask(FakeTask):
    """One sub-topology folded over its input a record at a time, depth
    first, through nothing but ``Processor.process`` — the order of
    execution the operators are defined against, and the test-side
    reference a chunk-executed task's committed output must equal. Stream
    time advances before each source record; ``commit`` runs the commit
    hooks in task order."""

    def __init__(self, sub_topology):
        super().__init__({
            spec.name: (
                InMemoryWindowStore(spec.name, retention_ms=spec.retention_ms)
                if spec.kind == "window" else InMemoryKeyValueStore(spec.name)
            )
            for spec in sub_topology.stores
        })
        self.sub = sub_topology
        self.processors = {}
        self.output: List[tuple] = []      # (sink topic, key, value, timestamp)
        for name, node in sub_topology.nodes.items():
            if isinstance(node, ProcessorNode):
                processor = self.processors[name] = node.supplier()
                processor.init(
                    EagerContext(self, name, list(node.children), list(node.stores))
                )

    def process_chunk_at(self, node_name: str, chunk) -> None:
        node = self.sub.nodes[node_name]
        for key, value, timestamp, headers in zip(
            chunk.keys, chunk.values, chunk.timestamps, chunk.headers
        ):
            if isinstance(node, SinkNode):
                self.output.append((node.topic, key, value, timestamp))
            else:
                self.processors[node_name].process(
                    StreamRecord(key, value, timestamp, headers)
                )

    def run(self, records) -> None:
        """``records``: (topic, key, value, timestamp) in processing order."""
        for topic, key, value, timestamp in records:
            self.stream_time = max(self.stream_time, timestamp)
            for source in self.sub.sources_for_topic(topic):
                for child in source.children:
                    self.process_chunk_at(
                        child, ColumnChunk([key], [value], [timestamp], [{}])
                    )

    def commit(self) -> None:
        for processor in self.processors.values():
            processor.on_commit()

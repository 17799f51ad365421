"""StreamTask: the smallest parallel unit of work (Section 3.3).

A task executes one sub-topology for one partition. Input records from its
source topic partitions are chosen in timestamp order, traverse the fused
processor graph synchronously as column chunks, update the task's state
stores (mirrored to changelog topics), and emit output records to sink
topic partitions — the read-process-write cycle of Section 4.2.

Tasks are stateless to lose: both their inputs and outputs live in Kafka
logs, so a task can be closed on one instance and recreated on another by
replaying its changelogs (see :mod:`repro.streams.runtime.restore`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.broker.partition import TopicPartition
from repro.errors import RetriableError
from repro.log.record import NO_HEADERS, FrozenHeaders
from repro.obs.stages import (
    EMITTED_AT_HEADER,
    FETCHED_AT_HEADER,
    PROCESSED_AT_HEADER,
)
from repro.obs.tracer import TRACE_ID_HEADER
from repro.streams.processor import Processor, ProcessorContext
from repro.streams.records import ColumnChunk
from repro.streams.runtime.record_queue import PartitionGroup
from repro.streams.runtime.restore import restore_store
from repro.streams.state import create_store
from repro.streams.topology import (
    ProcessorNode,
    SinkNode,
    StateStoreSpec,
    SubTopology,
)


class TaskId(NamedTuple):
    sub_id: int
    partition: int

    def __repr__(self) -> str:
        return f"{self.sub_id}_{self.partition}"


class StreamTask:
    """One running task on one instance."""

    def __init__(
        self,
        task_id: TaskId,
        sub_topology: SubTopology,
        application_id: str,
        cluster,
        producer,
        resolve: Callable[[str], str],
        standby_state: Optional[Dict[str, Any]] = None,
        track_speculation: bool = False,
        restore_listener: Optional[Callable] = None,
        restore_budget_per_poll: int = 0,
    ) -> None:
        # (tp, producer_id) -> [min offset, max offset] consumed from that
        # producer's (possibly still open) transaction — the commit
        # dependencies of speculative processing.
        self._track_speculation = track_speculation
        self.speculative_deps: Dict[Any, List[int]] = {}
        # standby_state: store name -> (warm store, changelog position),
        # handed over by a StandbyTask for incremental restoration.
        self._standby_state = standby_state or {}
        self.task_id = task_id
        self.sub = sub_topology
        self.application_id = application_id
        self.cluster = cluster
        self.producer = producer
        self.resolve = resolve
        self.stream_time = float("-inf")
        # Max timestamp of the chunk being dispatched. Operators see the
        # pre-chunk ``stream_time`` until the chunk is done; changelog
        # appends are stamped with the time the chunk closes at.
        self._chunk_max_ts = float("-inf")
        self.records_processed = 0
        self.restored_records = 0
        self._restore_listener = restore_listener
        # Throttled restoration: with a positive budget, changelog replay
        # is deferred and spread across polls (restore_step) instead of
        # blocking task construction, so a mass restore after instance
        # loss cannot starve live tasks on the same instance.
        self._restore_budget = restore_budget_per_poll
        self._pending_restores: List[Dict[str, Any]] = []
        # One-shot hook fired when this task processes its first record —
        # set by the instance only for tasks reopening after a revocation,
        # so per-task unavailability windows close at the exact virtual
        # time processing resumes (zero overhead otherwise).
        self.first_process_listener: Optional[Callable[[], None]] = None
        self._tracer = cluster.tracer
        # Trace track: one process per application, one lane per task.
        self._trace_pid = f"streams-{application_id}"
        self._trace_tid = repr(task_id)

        self.partitions = sorted(
            TopicPartition(resolve(topic), task_id.partition)
            for topic in sub_topology.source_topics
        )
        self._queues = PartitionGroup(self.partitions)
        # Committed progress only covers fully processed records.
        self._consumed: Dict[TopicPartition, int] = {}

        # topic (resolved) -> source node children
        self._source_children: Dict[str, List[str]] = {}
        for node in sub_topology.source_nodes():
            for topic in node.topics:
                self._source_children.setdefault(resolve(topic), []).extend(
                    node.children
                )

        self._stores: Dict[str, Any] = {}
        self._build_stores()
        self._processors: Dict[str, Processor] = {}
        self._build_processors()
        self._batch_fastpath = cluster.metrics.counter(
            "streams.batch_fastpath_total"
        )

    # -- construction ---------------------------------------------------------------

    def _build_stores(self) -> None:
        for spec in self.sub.stores:
            handed = self._standby_state.get(spec.name)
            if handed is not None:
                store, from_offset = handed
            else:
                store, from_offset = create_store(spec), 0
            self._stores[spec.name] = store
            if spec.changelog:
                # Replayed by restore_step; the changelog hooks attach when
                # the replay completes.
                self._pending_restores.append({
                    "spec": spec,
                    "store": store,
                    "changelog": spec.changelog_topic(self.application_id),
                    "from_offset": from_offset,
                    "next_offset": from_offset,
                })
        if self._restore_budget == 0:
            # Unthrottled: replay now. A store whose changelog still holds an
            # open transaction stays pending until a later round.
            self.restore_step(2**31)

    def _finish_restore_setup(
        self, spec: StateStoreSpec, store, changelog: str,
        next_offset: int, from_offset: int,
    ) -> None:
        store.set_update_hook(self._changelog_hook(spec))
        if hasattr(store, "set_bulk_update_hook"):
            store.set_bulk_update_hook(self._changelog_bulk_hook(spec))
        if self._restore_listener is not None:
            self._restore_listener(
                self.task_id,
                spec.name,
                store,
                changelog,
                self.task_id.partition,
                next_offset,
                from_offset,
            )

    # -- throttled restoration ---------------------------------------------------

    @property
    def is_restoring(self) -> bool:
        """True while throttled changelog replays are outstanding; the
        task buffers input but does not process until they complete."""
        return bool(self._pending_restores)

    def restore_remaining(self) -> int:
        """Committed changelog records still to replay (the restore lag).
        Leaderless changelog partitions count as unknown-large so they
        sort last in smallest-lag-first prioritization."""
        total = 0
        for item in self._pending_restores:
            tp = TopicPartition(item["changelog"], self.task_id.partition)
            try:
                log = self.cluster.partition_state(tp).leader_log()
            except RetriableError:
                total += 2**31
                continue
            total += max(0, log.last_stable_offset - item["next_offset"])
        return total

    def restore_step(self, budget: int) -> int:
        """Replay up to ``budget`` changelog records across this task's
        pending restores; returns records applied. Completed stores get
        their changelog hooks and fire the restore listener, exactly as
        an unthrottled build would."""
        applied_total = 0
        still: List[Dict[str, Any]] = []
        for item in self._pending_restores:
            if budget <= 0:
                still.append(item)
                continue
            try:
                applied, next_offset, complete = restore_store(
                    self.cluster,
                    item["store"],
                    item["changelog"],
                    self.task_id.partition,
                    from_offset=item["next_offset"],
                    max_records=budget,
                )
            except RetriableError:
                # Changelog leaderless mid-crash; retry on a later poll.
                still.append(item)
                continue
            item["next_offset"] = next_offset
            applied_total += applied
            budget -= applied
            self.restored_records += applied
            if complete:
                self._finish_restore_setup(
                    item["spec"], item["store"], item["changelog"],
                    next_offset, item["from_offset"],
                )
            else:
                still.append(item)
        self._pending_restores = still
        return applied_total

    def _changelog_time(self) -> float:
        """Timestamp of a changelog append: stream time once the chunk
        being processed is done."""
        return max(self.stream_time, self._chunk_max_ts, 0.0)

    def _changelog_hook(self, spec: StateStoreSpec):
        topic = spec.changelog_topic(self.application_id)
        partition = self.task_id.partition

        store_name = spec.name

        def on_update(key: Any, value: Any) -> None:
            if self._tracer.enabled:
                self._tracer.event(
                    "store.put",
                    self._trace_pid,
                    self._trace_tid,
                    category="state",
                    store=store_name,
                    changelog=topic,
                )
            self.producer.send(
                topic,
                key=key,
                value=value,
                timestamp=self._changelog_time(),
                partition=partition,
            )

        return on_update

    def _changelog_bulk_hook(self, spec: StateStoreSpec):
        """Columnar twin of :meth:`_changelog_hook`: one chunk's worth of
        store puts becomes a single column slab on the changelog topic.
        Traced runs go through the scalar hook so per-put store events
        stay intact."""
        topic = spec.changelog_topic(self.application_id)
        partition = self.task_id.partition
        scalar_hook = self._changelog_hook(spec)

        def on_update_many(items) -> None:
            if self._tracer.enabled:
                for key, value in items:
                    scalar_hook(key, value)
                return
            keys, values = zip(*items)
            self.producer.send_columns(
                topic,
                partition,
                keys,
                values,
                [self._changelog_time()] * len(items),
                [NO_HEADERS] * len(items),
            )

        return on_update_many

    def _build_processors(self) -> None:
        for name, node in self.sub.nodes.items():
            if not isinstance(node, ProcessorNode):
                continue
            processor = node.supplier()
            context = ProcessorContext(
                task=self,
                node_name=name,
                children=list(node.children),
                store_names=list(node.stores),
            )
            processor.init(context)
            self._processors[name] = processor

    # -- record intake -------------------------------------------------------------------

    def add_batch(self, tp: TopicPartition, batch) -> None:
        """Intake a fetched :class:`~repro.log.columnar.ColumnarBatch`:
        its columns are enqueued as they are and, in a traced run, when it
        was fetched rides along for the ``__t_fetched`` stage stamp.
        """
        count = batch.valid_count
        if count == 0:
            return
        offsets, timestamps, keys, values, headers = batch.columns()
        if self._track_speculation:
            # Producers that never open a transaction are tracked too,
            # and always resolve clean: only transactional appends enter
            # a log's open-transaction map or aborted index.
            deps = self.speculative_deps
            for pid, offset in zip(batch.producer_ids(), offsets):
                if pid >= 0:
                    span = deps.setdefault((tp, pid), [offset, offset])
                    span[0] = min(span[0], offset)
                    span[1] = max(span[1], offset)
        self._batch_fastpath.increment(count)
        self._queues.add_columns(
            tp, keys, values, timestamps, headers, offsets, batch.fetched_at
        )

    def buffered(self) -> int:
        return self._queues.buffered()

    # -- processing -------------------------------------------------------------------------

    def process_next_chunk(self) -> int:
        """Process the next run of buffered records, in timestamp order,
        through the fused graph; returns how many.

        Stream time is published to the task only after a chunk is
        dispatched; processors see finer-grained stream time per position
        (``ColumnChunk.stream_times_from``, ``context.stream_time`` inside
        ``Processor.process``).
        """
        if self._pending_restores:
            return 0
        item = self._queues.next_chunk()
        if item is None:
            return 0
        tp, chunk, last_offset = item
        count = len(chunk)
        self._dispatch(tp, self._source_children[tp.topic], chunk)
        self._consumed[tp] = last_offset + 1
        self.records_processed += count
        if self.first_process_listener is not None:
            listener, self.first_process_listener = (
                self.first_process_listener, None
            )
            listener()
        return count

    def _dispatch(self, tp: TopicPartition, children: List[str],
                  chunk: ColumnChunk) -> None:
        """Run one chunk through the graph, then publish its stream time.
        Traced, one span covers the chunk (listing the trace ids it
        carried) and every record travels on with a stamped, frozen *copy*
        of its headers: its batch's ``__t_fetched`` and one ``__t_processed``."""
        max_ts = self._chunk_max_ts = max(chunk.timestamps)
        if self._tracer.enabled:
            stamps = {PROCESSED_AT_HEADER: self.cluster.clock.now}
            if chunk.fetched_at is not None:
                stamps[FETCHED_AT_HEADER] = chunk.fetched_at
            stamped = [FrozenHeaders(h, **stamps) for h in chunk.headers]
            chunk = ColumnChunk(chunk.keys, chunk.values, chunk.timestamps, stamped)
            with self._tracer.begin(
                "task.process_chunk",
                self._trace_pid,
                self._trace_tid,
                category="task",
                topic=tp.topic,
                records=len(chunk),
                traces=[h.get(TRACE_ID_HEADER) for h in chunk.headers],
            ):
                for child in children:
                    self.process_chunk_at(child, chunk)
        else:
            for child in children:
                self.process_chunk_at(child, chunk)
        if max_ts > self.stream_time:
            self.stream_time = max_ts

    def process_chunk_at(self, node_name: str, chunk: ColumnChunk) -> None:
        """Deliver a chunk to a node (processor or sink) — the fused
        direct call between operators of one sub-topology. Whatever the
        processor forwarded record by record follows as one chunk."""
        node = self.sub.nodes[node_name]
        if isinstance(node, SinkNode):
            self._send_chunk_to_sink(node, chunk)
            return
        processor = self._processors[node_name]
        if self._tracer.enabled:
            with self._tracer.begin(
                f"process.{node_name}",
                self._trace_pid,
                self._trace_tid,
                category="task",
                records=len(chunk),
            ):
                processor.process_batch(chunk)
                processor.context.drain()
            return
        processor.process_batch(chunk)
        processor.context.drain()

    def _send_chunk_to_sink(self, node: SinkNode, chunk: ColumnChunk) -> None:
        """Hand the chunk's columns straight to the producer, which
        partitions them — per-partition record order is preserved, and no
        Record objects exist until the broker appends the slab to its log."""
        headers = chunk.headers
        if self._tracer.enabled:
            now = self.cluster.clock.now
            headers = [{**h, EMITTED_AT_HEADER: now} for h in headers]
        self.producer.send_chunk(
            self.resolve(node.topic), chunk.keys, chunk.values,
            chunk.timestamps, headers, node.partitioner,
        )

    # -- commit hooks --------------------------------------------------------------------------

    def prepare_commit(self) -> None:
        """Run every processor's commit hook in topology order, handing on
        what each forwards before the next one runs (a time-limited
        suppress flushes its buffer, a stream-stream left join its expired
        unmatched records), then flush stores. Must run inside the ongoing
        transaction."""
        for processor in self._processors.values():
            processor.on_commit()
            processor.context.drain()
        for store in self._stores.values():
            store.flush()

    def pending_offsets(self) -> Dict[TopicPartition, int]:
        return dict(self._consumed)

    def has_pending_commit(self) -> bool:
        """True when records were consumed since the last commit."""
        return bool(self._consumed)

    def mark_committed(self) -> None:
        self._consumed.clear()
        self.speculative_deps.clear()

    def speculation_status(self, ignore_pids=()) -> str:
        """Resolve this task's commit dependencies against the source logs:

        * ``"aborted"`` — some consumed upstream transaction aborted; the
          speculation is poisoned and must roll back;
        * ``"pending"`` — an upstream transaction is still open; our own
          commit must wait;
        * ``"clean"`` — every dependency committed.

        ``ignore_pids``: producer ids owned by this instance itself — data
        this very commit is about to commit is not a dependency.
        """
        pending = False
        for (tp, pid), (lo, hi) in self.speculative_deps.items():
            if pid in ignore_pids:
                continue
            log = self.cluster.partition_state(tp).leader_log()
            if log.producer_aborted_in_range(pid, lo, hi):
                return "aborted"
            open_txns = log.open_transactions()
            if pid in open_txns and open_txns[pid] <= hi:
                pending = True
        return "pending" if pending else "clean"

    # -- context services -------------------------------------------------------------------------

    def state_store(self, name: str):
        return self._stores[name]

    def stores(self) -> Dict[str, Any]:
        return dict(self._stores)

    def queryable_store(self, name: str):
        """Read-only interactive-query facade over one of this task's
        stores (the only sanctioned read path from outside the runtime)."""
        from repro.iq.view import QueryableStoreView

        return QueryableStoreView(self.state_store(name))

    def processors(self) -> Dict[str, Processor]:
        """Public view of the task's live processor nodes (metrics, tests)."""
        return dict(self._processors)

    def close(self) -> None:
        for processor in self._processors.values():
            processor.close()

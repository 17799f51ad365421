"""The producer client: batching, retries, idempotence, transactions.

Reproduces the client-side behaviour of Sections 4.1–4.2:

* **Retries on ambiguous failures.** A produce RPC that times out may or
  may not have been applied; the producer always retries (up to
  ``config.retries``), and relies on the broker's per-partition sequence
  numbers to de-duplicate — disable idempotence and the same retry
  produces a duplicate record, which is exactly the ablation benchmark.
* **Transactions.** ``init_transactions`` registers the transactional id
  (bumping the epoch and fencing zombies), ``send`` lazily registers each
  new output partition with the coordinator, ``send_offsets_to_transaction``
  folds the consumed offsets into the transaction, and
  ``commit_transaction``/``abort_transaction`` drive the two-phase commit.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.config import ProducerConfig
from repro.errors import (
    InvalidTxnStateError,
    KafkaError,
    MaxBlockTimeoutError,
    RetriableError,
)
from repro.log.columnar import ColumnarSlab
from repro.log.record import NO_HEADERS, NO_SEQUENCE, FrozenHeaders
from repro.obs.tracer import TRACE_ID_HEADER
from repro.sim.network import call_with_retry
from repro.util import MEMO_KEY_TYPES, RouteMemo, partition_for

# "Every type in this iterable is FrozenHeaders", decided in C.
_ALL_FROZEN = frozenset((FrozenHeaders,)).issuperset
_PARTITION = attrgetter("partition")


class _ColumnBuffer:
    """Per-partition pending sends as parallel columns.

    ``send()`` appends four scalars instead of building an intermediate
    ``Record``; the flush path hands the columns to the broker as one
    :class:`~repro.log.columnar.ColumnarSlab`, and the partition log
    stores those very lists — a buffer whose slab was sent is replaced,
    never appended to again.

    ``sealed`` is a slab that was sent and never acknowledged: the broker
    may hold it already, so it goes again exactly as it was (same records,
    same base sequence — the broker de-duplicates it) before anything
    buffered here, whose sequence follows on from it."""

    __slots__ = ("keys", "values", "timestamps", "headers", "sealed")

    def __init__(self, sealed: Optional[ColumnarSlab] = None) -> None:
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.timestamps: List[float] = []
        self.headers: List[Mapping[str, Any]] = []
        self.sealed = sealed


class Producer:
    """An embedded producer client against a :class:`Cluster`."""

    def __init__(self, cluster: Cluster, config: Optional[ProducerConfig] = None):
        self.cluster = cluster
        self.config = config or ProducerConfig()
        self.config.validate()
        self._network = cluster.network
        self._clock = cluster.clock
        self._tracer = cluster.tracer

        self.transactional = self.config.transactional_id is not None
        self.producer_id = -1
        self.producer_epoch = -1
        if self.config.enable_idempotence and not self.transactional:
            self.producer_id = cluster.allocate_producer_id()
            self.producer_epoch = 0

        self._sequences: Dict[TopicPartition, int] = {}
        self._pending: Dict[TopicPartition, _ColumnBuffer] = {}
        # topic -> the cluster's route (``Cluster.route_of``: its
        # TopicPartitions by partition number and the key -> TopicPartition
        # memo every client on the cluster shares), held so that ``send``
        # reaches it with one dict lookup. Where a partition's leader is,
        # is asked of the cluster at every RPC.
        self._routes: Dict[str, Tuple[List[TopicPartition], RouteMemo]] = {}
        self._in_transaction = False
        self._txn_registered_partitions: set = set()
        # Partitions written this transaction but not yet registered with
        # the coordinator; registered in one batched RPC at flush time
        # (Section 4.3: "producers can batch multiple writing partitions
        # in a single registration request"). A partition is queued when
        # its buffer is created (``_new_buffer``).
        self._txn_unregistered: set = set()
        self._initialized_transactions = False
        self._closed = False

        # Metrics
        self.records_sent = 0
        self.batches_sent = 0
        self.retries_performed = 0

    # -- transactions lifecycle -----------------------------------------------------

    def _call_coordinator(self, api: str, tp: TopicPartition, fn, cost: float):
        """One coordinator RPC, to whoever leads the coordinator's log
        partition ``tp`` — which can be leaderless, or its broker
        unreachable, mid-failover: ridden out (CONCURRENT_TRANSACTIONS too,
        it is just another retriable error) for at most ``max_block_ms``."""
        config = self.config
        try:
            return call_with_retry(
                self._network, self.cluster, config, api, tp, fn, cost,
                timeout_ms=config.max_block_ms,
                kind="coordinator_retry", detail={"api": api},
            )
        except RetriableError as exc:
            raise MaxBlockTimeoutError(
                f"{api} for {config.transactional_id!r} blocked "
                f"longer than max_block_ms={config.max_block_ms}"
            ) from exc

    def init_transactions(self) -> None:
        """Register the transactional id with the coordinator (Figure 4.b)."""
        if not self.transactional:
            raise InvalidTxnStateError("producer has no transactional_id")
        tid = self.config.transactional_id
        coordinator = self.cluster.txn_coordinator
        self.producer_id, self.producer_epoch = self._call_coordinator(
            "init_producer_id",
            coordinator.txn_log_partition(tid),
            lambda: coordinator.init_producer_id(
                tid, self.config.transaction_timeout_ms
            ),
            cost=self._network.coordinator_cost(),
        )
        # A re-registration (e.g. recovery after a crash) starts from a
        # clean slate: any client-side remnants of a previous incarnation's
        # open transaction are dropped (the coordinator has aborted it).
        self._sequences.clear()
        self._pending.clear()
        self._in_transaction = False
        self._txn_registered_partitions = set()
        self._txn_unregistered = set()
        self._initialized_transactions = True

    def begin_transaction(self) -> None:
        self._require_txn_ready()
        if self._in_transaction:
            raise InvalidTxnStateError("a transaction is already in progress")
        self._in_transaction = True
        self._txn_registered_partitions = set()
        self._txn_unregistered = set()

    @property
    def transaction_has_work(self) -> bool:
        """True when the open transaction has sent or buffered anything —
        i.e. committing it would not be a no-op. Drivers use this to decide
        whether a commit-interval wake timer is worth arming."""
        return self._in_transaction and bool(
            self._pending or self._txn_registered_partitions or self._txn_unregistered
        )

    @property
    def has_buffered_records(self) -> bool:
        """True when unflushed sends are sitting in the client buffer."""
        return bool(self._pending)

    @property
    def buffer_room(self) -> int:
        """How many more records can be buffered, wherever they go, before
        some partition's batch fills and is sent (at least 1)."""
        return self.config.batch_max_records - max(
            (len(bucket.keys) for bucket in self._pending.values()), default=0
        )

    def send_offsets_to_transaction(
        self,
        offsets: Dict[TopicPartition, int],
        group_id: str,
        member_id: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> None:
        """Fold the consumer's progress into the ongoing transaction.

        The offsets are appended to the consumer-offsets topic with this
        producer's id, so they commit or abort with the transaction — the
        atomic third leg of the read-process-write cycle (Section 4.2).

        Passing ``member_id``/``generation`` (the consumer's group metadata)
        enables group-generation fencing: a commit from a member that was
        kicked out of the group is rejected, which is how a zombie streams
        instance is fenced when per-thread producers are shared across
        tasks (Kafka 2.5+ exactly-once).
        """
        self._require_txn_ready()
        if not self._in_transaction:
            raise InvalidTxnStateError("no transaction in progress")
        group_coord = self.cluster.group_coordinator
        offsets_tp = group_coord.offsets_partition(group_id)
        self._register_txn_partition(offsets_tp)
        self._call_coordinator(
            "txn_offset_commit",
            offsets_tp,
            lambda: group_coord.commit_offsets(
                group_id,
                offsets,
                member_id=member_id,
                generation=generation,
                producer_id=self.producer_id,
                producer_epoch=self.producer_epoch,
                transactional=True,
            ),
            cost=self._network.produce_cost(len(offsets)),
        )

    def commit_transaction(self) -> None:
        self._end_transaction(commit=True)

    def abort_transaction(self) -> None:
        self._end_transaction(commit=False)

    def _end_transaction(self, commit: bool) -> None:
        self._require_txn_ready()
        if not self._in_transaction:
            raise InvalidTxnStateError("no transaction in progress")
        self.flush()
        tid = self.config.transactional_id
        coordinator = self.cluster.txn_coordinator
        try:
            self._call_coordinator(
                "end_txn",
                coordinator.txn_log_partition(tid),
                lambda: coordinator.end_transaction(
                    tid, self.producer_id, self.producer_epoch, commit
                ),
                cost=self._network.coordinator_cost(),
            )
        finally:
            self._in_transaction = False
            self._txn_registered_partitions = set()

    def _require_txn_ready(self) -> None:
        if not self.transactional:
            raise InvalidTxnStateError("producer has no transactional_id")
        if not self._initialized_transactions:
            raise InvalidTxnStateError("init_transactions() has not been called")

    # -- sending -------------------------------------------------------------------

    def send(
        self,
        topic: str,
        key: Any = None,
        value: Any = None,
        timestamp: Optional[float] = None,
        partition: Optional[int] = None,
        headers: Optional[Mapping[str, Any]] = None,
    ) -> TopicPartition:
        """Buffer one record; batches flush when full or on ``flush()``.

        ``headers`` are copied (see :class:`FrozenHeaders`); the caller's
        dict stays the caller's. Returns the destination partition.
        """
        if self._closed:
            raise KafkaError("producer is closed")
        in_transaction = self._in_transaction
        if not in_transaction and self.transactional:
            raise InvalidTxnStateError(
                "transactional producers must send within a transaction"
            )
        route = self._routes.get(topic)
        if route is None:
            route = self._route_of(topic)
        table, memo = route
        if partition is None:
            if type(key) in MEMO_KEY_TYPES:
                tp = memo[key]
            else:
                tp = table[partition_for(key, len(table))]
        elif 0 <= partition < len(table):
            tp = table[partition]
        else:
            tp = TopicPartition(topic, partition)    # fails at leader lookup
        tracer = self._tracer
        if tracer.enabled and TRACE_ID_HEADER not in (headers or ()):
            # First send of a fresh record: root of its causal chain. Hops
            # (repartition, changelog, sink) keep the inherited id.
            headers = FrozenHeaders(
                headers or (), **{TRACE_ID_HEADER: tracer.new_trace_id()}
            )
        elif not headers:
            headers = NO_HEADERS
        elif type(headers) is not FrozenHeaders:
            # The one header copy in the system: the caller keeps its dict.
            headers = FrozenHeaders(headers)
        bucket = self._pending.get(tp)
        if bucket is None:
            bucket = self._new_buffer(tp)
        keys = bucket.keys
        keys.append(key)
        bucket.values.append(value)
        bucket.timestamps.append(
            self._clock.now if timestamp is None else timestamp
        )
        bucket.headers.append(headers)
        if len(keys) >= self.config.batch_max_records:
            self._register_pending_partitions()
            self._send_batch(tp, bucket)
            self._pending[tp] = _ColumnBuffer()
        return tp

    def send_columns(
        self,
        topic: str,
        partition: int,
        keys: List[Any],
        values: List[Any],
        timestamps: List[float],
        headers: List[Mapping[str, Any]],
    ) -> TopicPartition:
        """Bulk-buffer a column chunk for one explicit partition.

        The chunk-execution hot path lands here: sink and changelog chunks
        arrive as parallel columns and are appended by list extension —
        no per-record ``Record`` (or even per-record method call) exists
        between the operator and the broker log. A header column that
        arrives frozen (forwarded from a poll or a chunk) is buffered by
        reference — one C-level test per call; any other is copied.
        """
        if self._closed:
            raise KafkaError("producer is closed")
        if self.transactional and not self._in_transaction:
            raise InvalidTxnStateError(
                "transactional producers must send within a transaction"
            )
        tp = TopicPartition(topic, partition)
        bucket = self._pending.get(tp)
        if bucket is None:
            bucket = self._new_buffer(tp)
        bucket.keys.extend(keys)
        bucket.values.extend(values)
        bucket.timestamps.extend(timestamps)
        bucket.headers.extend(
            headers if _ALL_FROZEN(map(type, headers))
            else map(FrozenHeaders, headers)
        )
        if len(bucket.keys) >= self.config.batch_max_records:
            self._register_pending_partitions()
            self._send_batch(tp, bucket)
            self._pending[tp] = _ColumnBuffer()
        return tp

    def send_chunk(
        self,
        topic: str,
        keys: List[Any],
        values: List[Any],
        timestamps: List[float],
        headers: List[Mapping[str, Any]],
        partitioner: Optional[Callable[[Any, Any, int], int]] = None,
    ) -> None:
        """Bulk-buffer a column chunk, each record on its key's partition:
        ``partitioner(key, value, partition_count)``, else the default one,
        through the same key memo as :meth:`send`. Each partition's records
        keep their order and go to :meth:`send_columns` as one chunk, in
        the order the partitions first appear.

        Traced, a record whose headers carry no trace id is a fresh record
        and gets one, in record order, as :meth:`send` would give it."""
        tracer = self._tracer
        if tracer.enabled:
            new_trace_id = tracer.new_trace_id
            headers = [
                hdrs if TRACE_ID_HEADER in hdrs
                else FrozenHeaders(hdrs, **{TRACE_ID_HEADER: new_trace_id()})
                for hdrs in headers
            ]
        table, memo = self._route_of(topic)
        count = len(table)
        if count == 1 and partitioner is None:
            self.send_columns(topic, 0, keys, values, timestamps, headers)
            return
        if partitioner is None:
            # The hash runs once per distinct key when every key of the
            # chunk may index the memo (one check per chunk), else once
            # per record.
            if MEMO_KEY_TYPES.issuperset(map(type, keys)):
                lookup = memo.__getitem__
            else:
                lookup = memo.route
            partitions = map(_PARTITION, map(lookup, keys))
        else:
            partitions = map(partitioner, keys, values, repeat(count))
        # One pass: each record's columns onto its partition's, the
        # partitioner called in record order.
        buckets: Dict[int, tuple] = {}
        buckets_get = buckets.get
        for partition, key, value, timestamp, hdrs in zip(
            partitions, keys, values, timestamps, headers
        ):
            bucket = buckets_get(partition)
            if bucket is None:
                bucket = buckets[partition] = ([], [], [], [])
            bucket[0].append(key)
            bucket[1].append(value)
            bucket[2].append(timestamp)
            bucket[3].append(hdrs)
        for partition, columns in buckets.items():
            self.send_columns(topic, partition, *columns)

    def _route_of(self, topic: str) -> Tuple[List[TopicPartition], RouteMemo]:
        """``topic``'s partition table and key memo: the cluster's own
        (:meth:`Cluster.route_of`)."""
        route = self._routes.get(topic)
        if route is None:
            route = self._routes[topic] = self.cluster.route_of(topic)
        return route

    def _new_buffer(self, tp: TopicPartition) -> _ColumnBuffer:
        """Open ``tp``'s buffer; inside a transaction, queue ``tp`` for
        registration unless it is registered already.

        This is the one place a record's partition is enlisted, which holds
        because inside a transaction every partition with a buffer is
        registered or queued: a transaction begins with no buffer (its
        predecessor's commit or abort flushed them all, ``init_transactions``
        drops them), every other buffer is made right after its partition's
        registration (a full batch is replaced, a failed slab sealed, only
        after ``_register_pending_partitions``), and registering moves a
        partition from queued to registered."""
        bucket = self._pending[tp] = _ColumnBuffer()
        if self._in_transaction and tp not in self._txn_registered_partitions:
            self._txn_unregistered.add(tp)
        return bucket

    def flush(self) -> None:
        """Send every buffered batch and await acknowledgements. A buffer
        leaves ``_pending`` as it is acknowledged: left there by a later
        failure, the next flush would send it again under fresh sequences."""
        self._register_pending_partitions()
        pending = self._pending
        for tp, bucket in list(pending.items()):
            self._send_batch(tp, bucket)
            del pending[tp]

    def _register_pending_partitions(self) -> None:
        if not self._txn_unregistered:
            return
        batch = sorted(self._txn_unregistered)
        self._register_txn_partitions(batch)
        self._txn_unregistered.clear()

    def _register_txn_partition(self, tp: TopicPartition) -> None:
        if tp in self._txn_registered_partitions:
            return
        self._register_txn_partitions([tp])

    def _register_txn_partitions(self, partitions: List[TopicPartition]) -> None:
        tid = self.config.transactional_id
        coordinator = self.cluster.txn_coordinator
        # One batched RPC; its cost grows only marginally with the number
        # of partitions registered. CONCURRENT_TRANSACTIONS (the previous
        # transaction's markers still landing) is retriable like any other
        # transient coordinator failure.
        cost = self._network.coordinator_cost() + 0.002 * len(partitions)
        self._call_coordinator(
            "add_partitions_to_txn",
            coordinator.txn_log_partition(tid),
            lambda: coordinator.add_partitions(
                tid, self.producer_id, self.producer_epoch, partitions
            ),
            cost=cost,
        )
        self._txn_registered_partitions.update(partitions)

    def _send_batch(self, tp: TopicPartition, bucket: _ColumnBuffer) -> None:
        """Send ``tp``'s ``bucket``: its sealed slab first, unchanged, then
        its records as a new slab. A new slab that fails is sealed in a
        fresh buffer for ``tp``: if only its ack was lost the broker's log
        stores its lists as they are, so nothing may be appended to them,
        and records sent from now on are sequenced after it."""
        if bucket.sealed is not None:
            self._deliver(tp, bucket.sealed)
            bucket.sealed = None
        record_count = len(bucket.keys)
        if not record_count:
            return
        base_sequence = NO_SEQUENCE
        if self.producer_id != -1:
            base_sequence = self._sequences.get(tp, 0)
            self._sequences[tp] = base_sequence + record_count
        # The slab takes ownership of the buffer's column lists; callers
        # replace the buffer after a send.
        batch = ColumnarSlab(
            keys=bucket.keys,
            values=bucket.values,
            timestamps=bucket.timestamps,
            headers=bucket.headers,
            producer_id=self.producer_id,
            producer_epoch=self.producer_epoch,
            base_sequence=base_sequence,
            is_transactional=self._in_transaction,
        )
        try:
            self._deliver(tp, batch)
        except BaseException:
            self._pending[tp] = _ColumnBuffer(sealed=batch)
            raise

    def _deliver(self, tp: TopicPartition, batch: ColumnarSlab) -> None:
        """One slab to ``tp``'s leader, acknowledged or raised. Retries
        send the same slab (and base sequence), so the broker can
        de-duplicate."""
        config = self.config
        record_count = len(batch.keys)
        send_started = self._clock.now if self._tracer.enabled else 0.0
        # Ridden out through timeouts, leaderless partitions and an ISR
        # below min, until the attempt cap or the delivery deadline.
        call_with_retry(
            self._network, self.cluster, config, "produce", tp,
            partial(self.cluster.handle_produce, tp, batch, config.acks),
            self._network.produce_cost(record_count),
            timeout_ms=config.delivery_timeout_ms, max_retries=config.retries,
            kind="send_retry", detail={"tp": tp}, on_retry=self._count_retry,
        )
        if self._tracer.enabled:
            # Acked-produce latency, labeled per partition (includes any
            # retries/backoff this batch rode through).
            self.cluster.metrics.histogram(
                "produce_latency_ms", topic=tp.topic, partition=tp.partition
            ).observe(self._clock.now - send_started)
        self.records_sent += record_count
        self.batches_sent += 1

    def _count_retry(self) -> None:
        self.retries_performed += 1

    def close(self) -> None:
        if self._closed:
            return
        if self._in_transaction:
            try:
                self.abort_transaction()
            except KafkaError:
                pass
        else:
            self.flush()
        self._closed = True

"""The transaction coordinator (Section 4.2 of the paper).

Each transactional producer registers a *transactional id*; the coordinator
maps the id (by stable hash) to a partition of the internal
``__transaction_state`` topic and keeps that transaction's metadata — state
(Empty / Ongoing / PrepareCommit / PrepareAbort / CompleteCommit /
CompleteAbort), producer id, epoch, and registered partitions — in memory,
persisting every change as a record in the transaction log.

The two-phase commit works exactly as in Figure 4:

1. the producer flushes its writes and calls ``end_transaction``;
2. **phase one** — the coordinator writes ``PrepareCommit`` to the
   transaction log. Once that append is replicated the transaction is
   guaranteed to commit, even if the coordinator crashes immediately after;
3. **phase two** — the coordinator writes commit markers to every partition
   registered in the transaction (data partitions, changelog partitions,
   and the consumer-offsets partition), then records ``CompleteCommit``.

Zombie fencing: registration bumps the producer epoch; markers are written
with the *current* epoch, and partition logs reject appends from older
epochs, so a fenced producer cannot slip data into committed output.

Coordinator failover is modelled by :meth:`recover`, which drops the
in-memory cache and rebuilds it by replaying the transaction log, rolling
forward transactions stuck in ``PrepareCommit`` and aborting ones stuck in
``PrepareAbort``/``Ongoing`` — the behaviour the paper describes for a new
leader of a transaction-log partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.errors import (
    ConcurrentTransactionsError,
    InvalidTxnStateError,
    ProducerFencedError,
)
from repro.broker.partition import TRANSACTION_STATE_TOPIC, TopicPartition
from repro.log.columnar import ColumnarSlab
from repro.log.record import ABORT_MARKER, COMMIT_MARKER, NO_HEADERS
from repro.util import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster

EMPTY = "Empty"
ONGOING = "Ongoing"
PREPARE_COMMIT = "PrepareCommit"
PREPARE_ABORT = "PrepareAbort"
COMPLETE_COMMIT = "CompleteCommit"
COMPLETE_ABORT = "CompleteAbort"


@dataclass
class TxnMetadata:
    """In-memory (and logged) metadata of one transactional id."""

    transactional_id: str
    producer_id: int
    producer_epoch: int
    state: str = EMPTY
    partitions: Set[TopicPartition] = field(default_factory=set)
    txn_start_ms: float = -1.0
    timeout_ms: float = 60_000.0
    # Guards scheduled (asynchronous) phase-two completions: a scheduled
    # marker write no-ops if the epoch of completions has moved on.
    completion_seq: int = 0
    # Self-rescheduling timeout timer armed while the transaction is
    # Ongoing; runtime-only, never logged.
    abort_timer: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def snapshot(self) -> dict:
        """Serializable form written to the transaction log."""
        return {
            "transactional_id": self.transactional_id,
            "producer_id": self.producer_id,
            "producer_epoch": self.producer_epoch,
            "state": self.state,
            "partitions": sorted(self.partitions),
            "txn_start_ms": self.txn_start_ms,
            "timeout_ms": self.timeout_ms,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "TxnMetadata":
        return cls(
            transactional_id=snap["transactional_id"],
            producer_id=snap["producer_id"],
            producer_epoch=snap["producer_epoch"],
            state=snap["state"],
            partitions={TopicPartition(t, p) for t, p in snap["partitions"]},
            txn_start_ms=snap["txn_start_ms"],
            timeout_ms=snap["timeout_ms"],
        )


class TransactionCoordinator:
    """Cluster-side transaction management backed by the transaction log."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._txns: Dict[str, TxnMetadata] = {}
        self.markers_written = 0      # metric: phase-two marker appends
        self.log_appends = 0          # metric: txn-log metadata appends

    # -- routing -----------------------------------------------------------------

    def txn_log_partition(self, transactional_id: str) -> TopicPartition:
        meta = self._cluster.topic_metadata(TRANSACTION_STATE_TOPIC)
        index = stable_hash(transactional_id) % meta.num_partitions
        return TopicPartition(TRANSACTION_STATE_TOPIC, index)

    # -- producer registration (Figure 4.b) ------------------------------------

    def init_producer_id(
        self, transactional_id: str, timeout_ms: float = 60_000.0
    ) -> Tuple[int, int]:
        """Register a transactional id; completes any dangling transaction.

        Returns (producer_id, producer_epoch) with the epoch bumped, which
        fences all earlier incarnations.
        """
        txn = self._txns.get(transactional_id)
        if txn is None:
            txn = TxnMetadata(
                transactional_id=transactional_id,
                producer_id=self._cluster.allocate_producer_id(),
                producer_epoch=-1,
                timeout_ms=timeout_ms,
            )
            self._txns[transactional_id] = txn
        # Bump the epoch first so that the markers written while completing a
        # dangling transaction already carry the new epoch — fencing zombie
        # writers on every registered partition immediately.
        txn.producer_epoch += 1
        if txn.state in (PREPARE_COMMIT, PREPARE_ABORT):
            # Mid-phase-two (possibly with marker writes still in flight):
            # drive it to completion synchronously before handing the id
            # to the new incarnation.
            self.force_complete_pending(transactional_id)
        elif txn.state == ONGOING:
            self._transition(txn, PREPARE_ABORT)
            self.force_complete_pending(transactional_id)

        txn.timeout_ms = timeout_ms
        txn.state = EMPTY
        txn.partitions = set()
        txn.txn_start_ms = -1.0
        self._disarm_abort_timer(txn)
        self._persist(txn)
        return txn.producer_id, txn.producer_epoch

    # -- partition registration (Figure 4.c) -------------------------------------

    def add_partitions(
        self,
        transactional_id: str,
        producer_id: int,
        producer_epoch: int,
        partitions: List[TopicPartition],
    ) -> None:
        txn = self._validate(transactional_id, producer_id, producer_epoch)
        if txn.state in (PREPARE_COMMIT, PREPARE_ABORT):
            # The previous transaction's markers are still being written;
            # the producer must wait before starting the next one.
            raise ConcurrentTransactionsError(
                f"{transactional_id}: previous transaction still completing"
            )
        if txn.state not in (EMPTY, ONGOING, COMPLETE_COMMIT, COMPLETE_ABORT):
            raise InvalidTxnStateError(
                f"{transactional_id}: cannot add partitions in state {txn.state}"
            )
        started = txn.state != ONGOING
        if started:
            txn.state = ONGOING
            txn.txn_start_ms = self._cluster.clock.now
            self._arm_abort_timer(txn)
        new = set(partitions) - txn.partitions
        if new or started:
            txn.partitions.update(new)
            self._persist(txn)

    # -- two-phase commit / abort (Figure 4.e/f) -----------------------------------

    def end_transaction(
        self,
        transactional_id: str,
        producer_id: int,
        producer_epoch: int,
        commit: bool,
    ) -> None:
        txn = self._validate(transactional_id, producer_id, producer_epoch)
        if txn.state in (EMPTY, COMPLETE_COMMIT, COMPLETE_ABORT):
            # Nothing was sent since the last completion; committing an
            # empty transaction is a no-op.
            return
        if txn.state in (PREPARE_COMMIT, PREPARE_ABORT):
            # The *previous* transaction's markers are still landing and
            # the new one never registered a partition (it is empty):
            # nothing to do. A non-empty new transaction would have waited
            # in add_partitions on ConcurrentTransactions.
            return
        if txn.state != ONGOING:
            raise InvalidTxnStateError(
                f"{transactional_id}: cannot end transaction in state {txn.state}"
            )
        prepare = PREPARE_COMMIT if commit else PREPARE_ABORT
        self._transition(txn, prepare)  # phase one: the synchronization barrier
        self._complete(txn, COMMIT_MARKER if commit else ABORT_MARKER)

    def abort_timed_out(self) -> List[str]:
        """Abort every ongoing transaction past its timeout (coordinator-
        initiated abort, Section 4.2.2). Returns the aborted ids.

        Timeouts are normally enforced by the self-rescheduling timer armed
        when a transaction starts (:meth:`_arm_abort_timer`), which fires
        as soon as virtual time passes the deadline — no driver needs to
        sweep every cycle. This method remains as an explicit sweep for
        callers that manage time themselves.
        """
        now = self._cluster.clock.now
        aborted = []
        for txn in list(self._txns.values()):
            if txn.state != ONGOING:
                continue
            if now - txn.txn_start_ms < txn.timeout_ms:
                continue
            self._abort_for_timeout(txn)
            aborted.append(txn.transactional_id)
        return aborted

    def _abort_for_timeout(self, txn: TxnMetadata) -> None:
        tracer = self._cluster.tracer
        if tracer.enabled:
            tracer.event(
                "txn.timeout_abort",
                "txn-coordinator",
                txn.transactional_id,
                category="txn",
                started_ms=txn.txn_start_ms,
                timeout_ms=txn.timeout_ms,
            )
        # Bump the epoch so the timed-out producer is fenced when it
        # eventually tries to commit.
        txn.producer_epoch += 1
        self._transition(txn, PREPARE_ABORT)
        self._complete(txn, ABORT_MARKER)

    # -- timeout timers ----------------------------------------------------------------

    def _arm_abort_timer(self, txn: TxnMetadata) -> None:
        """(Re-)arm the transaction-timeout timer at ``start + timeout``.

        Housekeeping (non-wake) timer: it fires whenever simulated time
        actually crosses the deadline, but an otherwise idle driver does
        not fast-forward the run just to expire transactions.
        """
        self._disarm_abort_timer(txn)
        if txn.timeout_ms <= 0:
            return
        clock = self._cluster.clock
        delay = max(0.0, txn.txn_start_ms + txn.timeout_ms - clock.now)
        txn.abort_timer = clock.schedule(
            delay, lambda txn=txn: self._on_abort_timer(txn), wake=False
        )

    def _disarm_abort_timer(self, txn: TxnMetadata) -> None:
        if txn.abort_timer is not None:
            txn.abort_timer.cancel()
            txn.abort_timer = None

    def _on_abort_timer(self, txn: TxnMetadata) -> None:
        txn.abort_timer = None
        if self._txns.get(txn.transactional_id) is not txn:
            return  # superseded by recovery
        if txn.state != ONGOING:
            return
        deadline = txn.txn_start_ms + txn.timeout_ms
        if self._cluster.clock.now < deadline:
            # The deadline moved (a newer transaction started under the
            # same id); re-arm for the remaining window.
            self._arm_abort_timer(txn)
            return
        self._abort_for_timeout(txn)

    # -- failover -------------------------------------------------------------------

    def recover(self) -> None:
        """Drop the in-memory cache and rebuild it from the transaction log,
        completing transactions that were mid-two-phase-commit."""
        self._txns.clear()
        max_pid = 0
        meta = self._cluster.topic_metadata(TRANSACTION_STATE_TOPIC)
        for index in range(meta.num_partitions):
            tp = TopicPartition(TRANSACTION_STATE_TOPIC, index)
            log = self._cluster.partition_state(tp).leader_log()
            snapshots = log.read_columnar(
                log.log_start_offset, up_to_offset=log.log_end_offset
            ).values()
            for snapshot in snapshots:
                txn = TxnMetadata.from_snapshot(snapshot)
                self._txns[txn.transactional_id] = txn
                max_pid = max(max_pid, txn.producer_id + 1)
        self._cluster.reserve_producer_id(max_pid)
        for txn in self._txns.values():
            # Transactions past the synchronization barrier are driven to
            # completion; Ongoing ones stay ongoing — their (possibly still
            # live) producer continues or they eventually time out, so the
            # new coordinator re-arms their timeout timers.
            if txn.state in (PREPARE_COMMIT, PREPARE_ABORT):
                self.force_complete_pending(txn.transactional_id)
            elif txn.state == ONGOING:
                self._arm_abort_timer(txn)

    # -- introspection ----------------------------------------------------------------

    def transaction_state(self, transactional_id: str) -> Optional[str]:
        txn = self._txns.get(transactional_id)
        return None if txn is None else txn.state

    def transaction_metadata(self, transactional_id: str) -> Optional[TxnMetadata]:
        return self._txns.get(transactional_id)

    # -- internals ----------------------------------------------------------------------

    def _validate(
        self, transactional_id: str, producer_id: int, producer_epoch: int
    ) -> TxnMetadata:
        txn = self._txns.get(transactional_id)
        if txn is None or txn.producer_id != producer_id:
            raise InvalidTxnStateError(
                f"unknown transactional id / producer id: {transactional_id}"
            )
        if producer_epoch < txn.producer_epoch:
            raise ProducerFencedError(
                f"{transactional_id}: epoch {producer_epoch} fenced by "
                f"{txn.producer_epoch}"
            )
        return txn

    def _transition(self, txn: TxnMetadata, state: str) -> None:
        txn.state = state
        if state != ONGOING:
            self._disarm_abort_timer(txn)
        self._persist(txn)

    def _persist(self, txn: TxnMetadata) -> None:
        """Append the latest metadata to the transaction log (replicated)."""
        tracer = self._cluster.tracer
        if tracer.enabled:
            # Every durable 2PC transition flows through here — synchronous
            # _transition() calls and the scheduled phase-two finishes alike
            # — so one event site covers the whole state machine.
            tracer.event(
                f"txn.{txn.state}",
                "txn-coordinator",
                txn.transactional_id,
                category="txn",
                epoch=txn.producer_epoch,
                partitions=len(txn.partitions),
            )
        tp = self.txn_log_partition(txn.transactional_id)
        batch = ColumnarSlab(
            [txn.transactional_id], [txn.snapshot()],
            [self._cluster.clock.now], [NO_HEADERS],
        )
        network = self._cluster.network
        state = self._cluster.partition_state(tp)
        leader = self._cluster.leader_of(tp)
        network.call(
            "txn_log_append",
            leader,
            lambda: state.append(batch, acks="all"),
            base_cost_ms=network.coordinator_cost(),
        )
        self.log_appends += 1

    def _complete(self, txn: TxnMetadata, marker_type: str) -> None:
        """Phase two: write markers to every registered partition, then
        record the Complete state.

        Markers are inter-broker appends issued *by the coordinator*, not
        by the client: they do not block the producer's pipeline, but the
        transaction's records only become visible to read-committed
        consumers once the markers land. When the network charges latency,
        marker writes are therefore *scheduled* on the virtual clock —
        batched per destination broker, with a per-marker append cost —
        which is what makes end-to-end latency grow linearly with the
        number of partitions in the transaction (Figure 5.a) while
        throughput barely moves.
        """
        txn.completion_seq += 1
        network = self._cluster.network
        partitions = sorted(txn.partitions)
        done = COMPLETE_COMMIT if marker_type == COMMIT_MARKER else COMPLETE_ABORT

        if not network.charge_latency or not partitions:
            for tp in partitions:
                self._write_marker(tp, txn, marker_type)
            txn.state = done
            txn.partitions = set()
            txn.txn_start_ms = -1.0
            self._persist(txn)
            return

        # Asynchronous completion: one RPC per destination broker, each
        # appending that broker's markers sequentially.
        by_broker: Dict[int, List[TopicPartition]] = {}
        for tp in partitions:
            by_broker.setdefault(self._cluster.leader_of(tp), []).append(tp)
        clock = self._cluster.clock
        seq = txn.completion_seq
        delay = 0.0
        for broker_id in sorted(by_broker):
            delay += network.costs.rpc_base_ms
            for tp in by_broker[broker_id]:
                delay += network.costs.marker_write_ms
                clock.schedule(
                    delay,
                    lambda tp=tp, txn=txn, mt=marker_type, s=seq: (
                        self._write_marker(tp, txn, mt)
                        if txn.completion_seq == s
                        else None
                    ),
                )

        def finish(txn=txn, done=done, s=seq):
            if txn.completion_seq != s:
                return
            txn.state = done
            txn.partitions = set()
            txn.txn_start_ms = -1.0
            self._persist(txn)

        clock.schedule(delay, finish)
        txn.partitions = set(partitions)   # keep until markers land

    def _write_marker(self, tp: TopicPartition, txn: TxnMetadata, marker_type: str) -> None:
        self._cluster.partition_state(tp).append_marker(
            marker_type, txn.producer_id, txn.producer_epoch,
            self._cluster.clock.now,
        )
        self.markers_written += 1
        tracer = self._cluster.tracer
        if tracer.enabled:
            tracer.event(
                "txn.marker",
                "txn-coordinator",
                txn.transactional_id,
                category="txn",
                marker=marker_type,
                partition=str(tp),
            )

    def force_complete_pending(self, transactional_id: str) -> None:
        """Synchronously finish a transaction whose phase two is still in
        flight (used when a new incarnation registers mid-completion)."""
        txn = self._txns.get(transactional_id)
        if txn is None or txn.state not in (PREPARE_COMMIT, PREPARE_ABORT):
            return
        marker_type = COMMIT_MARKER if txn.state == PREPARE_COMMIT else ABORT_MARKER
        txn.completion_seq += 1   # invalidate scheduled writers
        remaining = sorted(
            tp for tp in txn.partitions
            if txn.producer_id in self._cluster.partition_state(tp)
            .leader_log().open_transactions()
        )
        for tp in remaining:
            self._write_marker(tp, txn, marker_type)
        done = COMPLETE_COMMIT if marker_type == COMMIT_MARKER else COMPLETE_ABORT
        txn.state = done
        txn.partitions = set()
        txn.txn_start_ms = -1.0
        self._persist(txn)

"""The consumer client: subscriptions, groups, positions, isolation levels.

``isolation_level=read_committed`` gives the visibility contract of
Section 4.2.3: records of a transaction are returned only once its commit
marker has been appended, aborted records are never returned, and the
consumer's position still advances across markers and filtered spans.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.gray import GrayFailureDetector
from repro.config import COOPERATIVE, READ_COMMITTED, ConsumerConfig
from repro.errors import (
    KafkaError,
    OffsetOutOfRangeError,
    RetriableError,
    UnstableOffsetCommitError,
)
from repro.log.columnar import ColumnarBatch
from repro.sim.network import call_with_retry

#: Records one poll returns at most when its caller names no limit.
MAX_POLL_RECORDS = 500


class ConsumerRecord(NamedTuple):
    """One polled record: the fields Kafka's consumer record has.

    ``topic`` / ``partition`` say where *this* consumer read it; ``headers``
    is the mapping the log itself holds, shared with every replica and
    every other reader and therefore read-only (``dict(record.headers)`` is
    a copy to change). Immutable. Producer id, epoch and sequence are
    batch-level facts of the log and are not handed out.
    """

    topic: str
    partition: int
    offset: int
    timestamp: float
    key: Any
    value: Any
    headers: Mapping[str, Any]


class Consumer:
    """An embedded consumer client against a :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[ConsumerConfig] = None,
    ):
        self.cluster = cluster
        self.config = config or ConsumerConfig()
        self.config.validate()
        self._network = cluster.network
        self._tracer = cluster.tracer
        self._subscription: Tuple[str, ...] = ()
        self._assignment: List[TopicPartition] = []
        # Bumped wherever ``_assignment`` is rebound — also by an adoption
        # that grants the same partitions — so an embedding runtime can
        # tell "nothing was (re)assigned since I last looked" from one int.
        self.assignment_epoch = 0
        self._manual_assignment = False
        self._positions: Dict[TopicPartition, int] = {}
        # Partitions waiting for their committed start offset: not fetched
        # until a poll finds the group's offsets stable (_resolve_withheld,
        # which skips any no longer assigned). Empty in the steady state.
        self._withheld: set = set()
        self._member_id: Optional[str] = None
        self._generation = -1
        self._partitions_lost = False
        self._closed = False
        self._fetch_cursor = 0

        # Stands in for the background heartbeat thread of a real consumer:
        # the coordinator calls it when this member's session deadline
        # passes to ask whether the process is still alive (embedding
        # runtimes point it at their own liveness, e.g. instance.alive).
        self.liveness_probe = None

        # Optional rebalance listener: callback(revoked, added, retained),
        # each a sorted list of TopicPartitions, invoked whenever the
        # adopted assignment changes. The sets follow the negotiated
        # protocol's semantics: an eager rebalance revokes *everything*
        # (retained is always empty); a cooperative one revokes only the
        # partitions actually moving away (KIP-429 incremental semantics).
        self.rebalance_callback = None

        self.records_consumed = 0
        # Poll-size telemetry.
        self._records_per_poll = cluster.metrics.histogram(
            "consumer.records_per_poll"
        )
        # Fetch-response lag bookkeeping: every fetch response already
        # carries the partition's visible end (LSO under read_committed,
        # HW otherwise), so lag = visible end − post-fetch position is
        # free. Gauges are cached per partition — this is the poll hot
        # path. The fetch round-trip EWMA feeds the fetch-latency SLO.
        self._lag_gauges: Dict[TopicPartition, Any] = {}
        self._rtt_ewma: Optional[float] = None
        self._rtt_gauge = cluster.metrics.gauge(
            "consumer.fetch_rtt_ms", client=self.config.client_id
        )
        # Gray-failure detection (config.hedged_fetch): per-broker latency
        # EWMA over fetch round trips; while the leader is demoted, fetches
        # hedge to another in-sync replica.
        self._gray = (
            GrayFailureDetector(cluster.clock, metrics=cluster.metrics)
            if self.config.hedged_fetch
            else None
        )
        self.hedged_fetches = 0

    # -- subscription / assignment ---------------------------------------------------

    def subscribe(self, topics: List[str]) -> None:
        """Join the consumer group (config.group_id) subscribed to ``topics``."""
        if self.config.group_id is None:
            raise KafkaError("subscribe() requires a group_id; use assign()")
        self._subscription = tuple(sorted(topics))
        self._manual_assignment = False
        coordinator = self.cluster.group_coordinator
        self._member_id, self._generation = coordinator.join_group(
            self.config.group_id,
            self._subscription,
            self._member_id,
            session_timeout_ms=self.config.session_timeout_ms,
            liveness=self._alive,
            protocol=self.config.rebalance_protocol,
        )
        self._refresh_assignment()

    def assign(self, partitions: List[TopicPartition]) -> None:
        """Manual assignment (no group membership).

        The reset policy positions a partition that has no position now —
        except ``auto_offset_reset="none"``: that one waits for ``seek``, and
        the first ``poll()`` / ``position()`` without one raises.
        """
        self._manual_assignment = True
        self._assignment = list(partitions)
        self.assignment_epoch += 1
        if self.config.auto_offset_reset != "none":
            for tp in partitions:
                self.position(tp)

    def assignment(self) -> List[TopicPartition]:
        return list(self._assignment)

    @property
    def member_id(self) -> Optional[str]:
        return self._member_id

    @property
    def generation(self) -> int:
        return self._generation

    def _refresh_assignment(self) -> None:
        """Adopt the coordinator's current assignment for this member."""
        coordinator = self.cluster.group_coordinator
        group = self.config.group_id
        assigned = coordinator.assignment(group, self._member_id, self._generation)
        old = set(self._assignment)
        self._assignment = assigned
        self.assignment_epoch += 1
        newly = [tp for tp in assigned if tp not in old]
        self._withheld.update(newly)
        removed = old - set(assigned)
        for tp in removed:
            self._positions.pop(tp, None)
        cooperative = coordinator.group_protocol(group) == COOPERATIVE
        if old != set(assigned) and self.rebalance_callback is not None:
            if cooperative:
                revoked = sorted(removed)
                added = sorted(newly)
                retained = sorted(old & set(assigned))
            else:
                # Eager semantics: the old assignment was revoked wholesale
                # and the new one adopted from scratch.
                revoked = sorted(old)
                added = sorted(assigned)
                retained = []
            self.rebalance_callback(revoked, added, retained)
        if cooperative:
            # The callback (or, without one, the adoption above) has
            # finished with every partition outside the adopted assignment:
            # confirm the release so the coordinator can grant them to
            # their new owners in a follow-up generation. Unconditional on
            # purpose — the coordinator may hold claims under this member's
            # name for a *grant it never adopted* (a generation it slept
            # through while idle); no local state exists for those either,
            # so the last committed offsets are the correct handover point.
            coordinator.rebalance_ack(group, self._member_id)

    def _maybe_rejoin(self) -> None:
        """Detect a generation bump (another member joined/left) and rejoin.

        If this member was *kicked* from the group (session expired while
        it was partitioned away — the zombie scenario), its partitions were
        lost, not revoked: all local positions are invalid, and the caller
        must observe :meth:`take_partitions_lost` and discard in-flight
        work before trusting anything fetched afterwards."""
        if self._manual_assignment or self._member_id is None:
            return
        coordinator = self.cluster.group_coordinator
        if coordinator.generation(self.config.group_id) == self._generation:
            return
        if not coordinator.is_member(self.config.group_id, self._member_id):
            self._partitions_lost = True
            self._assignment = []
            self.assignment_epoch += 1
            self._positions.clear()
        self._member_id, self._generation = coordinator.join_group(
            self.config.group_id,
            self._subscription,
            self._member_id,
            session_timeout_ms=self.config.session_timeout_ms,
            liveness=self._alive,
            protocol=self.config.rebalance_protocol,
        )
        self._refresh_assignment()

    def _alive(self) -> bool:
        if self._closed:
            return False
        probe = self.liveness_probe
        return True if probe is None else bool(probe())

    def take_partitions_lost(self) -> bool:
        """True once if the member was kicked since the last check."""
        lost, self._partitions_lost = self._partitions_lost, False
        return lost

    def _reset_offset(self, tp: TopicPartition) -> int:
        policy = self.config.auto_offset_reset
        if policy == "earliest":
            return self.cluster.partition_state(tp).leader_log().log_start_offset
        if policy == "latest":
            return self.cluster.end_offset(tp, self.config.isolation_level)
        raise OffsetOutOfRangeError(f"{tp}: no committed offset and reset policy is 'none'")

    def _resolve_withheld(self) -> bool:
        """Start the withheld partitions at the group's committed offsets
        (or the reset policy), unless an offset commit's markers are still
        in flight — then False: it would read the commit before (KIP-447)."""
        coordinator = self.cluster.group_coordinator
        group = self.config.group_id
        if not coordinator.offsets_stable(group):
            return False
        withheld = [tp for tp in self._assignment if tp in self._withheld]
        committed = coordinator.fetch_committed(group, withheld)
        for tp in withheld:
            offset = committed[tp]
            self._positions[tp] = self._reset_offset(tp) if offset is None else offset
        self._withheld.clear()
        return True

    # -- polling ------------------------------------------------------------------------

    def poll(self, max_records: Optional[int] = None) -> List[ConsumerRecord]:
        """Fetch the next visible records across assigned partitions.

        The scalar view of :meth:`poll_batches` for plain clients: seven
        fields zipped from the batch's columns, headers as the log holds them.
        Each record is ``ConsumerRecord._make`` done in C — ``tuple.__new__``
        over the zipped fields: no Python frame and no length check per
        record.
        """
        out: List[ConsumerRecord] = []
        record_type = repeat(ConsumerRecord)
        for batch in self.poll_batches(max_records):
            out += map(
                tuple.__new__,
                record_type,
                zip(repeat(batch.topic), repeat(batch.partition), *batch.columns()),
            )
        return out

    def poll_batches(
        self, max_records: Optional[int] = None
    ) -> List[ColumnarBatch]:
        """The next visible records as at most one :class:`ColumnarBatch`
        per assigned partition.

        Partitions are served round-robin so one busy partition cannot
        starve the others. Nothing is materialized — each batch is a slice
        of the broker log plus validity runs, stamped with its origin
        ``topic``/``partition``; ``batch.records`` is the scalar view.
        """
        if self._closed:
            raise KafkaError("consumer is closed")
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be at least 1, got {max_records}")
        if self._member_id is not None and not self._manual_assignment:
            # Heartbeat piggybacks on poll (and is also a coordinator safe
            # point where deferred session evictions are applied).
            self.cluster.group_coordinator.heartbeat(
                self.config.group_id, self._member_id
            )
        self._maybe_rejoin()
        budget = MAX_POLL_RECORDS if max_records is None else max_records
        out: List[ColumnarBatch] = []
        active = self._assignment
        if self._withheld and not self._resolve_withheld():
            withheld = self._withheld
            active = [tp for tp in active if tp not in withheld]
        if not active:
            return out
        total = 0
        for i in range(len(active)):
            if budget <= 0:
                break
            tp = active[(self._fetch_cursor + i) % len(active)]
            try:
                batch = self._fetch_one(tp, budget)
            except RetriableError:
                # Leaderless partition, dropped fetch, dead broker: skip
                # this partition for the round and let the next poll try
                # again. Positions are untouched, so nothing is lost or
                # re-read.
                self.cluster.recovery.note_detection(
                    "fetch_error", client=self.config.client_id, partition=str(tp)
                )
                continue
            count = batch.valid_count
            if count:
                out.append(batch)
                budget -= count
                total += count
        self._fetch_cursor += 1
        self.records_consumed += total
        self._records_per_poll.observe(total)
        return out

    def _alternate_replica(
        self, tp: TopicPartition, leader: int, gray: GrayFailureDetector
    ) -> Optional[int]:
        """A live, non-demoted ISR member other than the leader, for the
        gray-failure hedge. Deterministic: lowest eligible broker id."""
        state = self.cluster.partition_state(tp)
        for broker in sorted(state.isr):
            if (
                broker != leader
                and not gray.is_demoted(broker)
                and self.cluster.is_broker_alive(broker)
            ):
                return broker
        return None

    def _fetch_one(self, tp: TopicPartition, budget: int) -> ColumnarBatch:
        position = self._positions.get(tp)
        if position is None:
            position = self._reset_offset(tp)
            self._positions[tp] = position
        leader = self.cluster.leader_of(tp)
        gray = self._gray
        replica = None
        if gray is not None and gray.is_demoted(leader):
            replica = self._alternate_replica(tp, leader, gray)
        target = leader if replica is None else replica
        fetch_started = self.cluster.clock.now
        batch = self._network.call(
            "fetch",
            target,
            lambda: self.cluster.handle_fetch(
                tp, position, budget, self.config.isolation_level, replica
            ),
            base_cost_ms=self.cluster.costs.fetch(),
            src=self.config.client_id,
        )
        if gray is not None:
            gray.observe(target, self.cluster.clock.now - fetch_started)
            if gray.check(target):
                self.cluster.recovery.note_detection(
                    "gray_demotion", client=self.config.client_id, broker=target
                )
            if replica is not None:
                self.hedged_fetches += 1
                self.cluster.metrics.counter("consumer.hedged_fetches").increment()
        self._positions[tp] = batch.next_offset
        self._note_fetch(tp, batch, fetch_started)
        # Nothing per record here: where and (traced) when the batch was
        # fetched ride on the batch itself.
        topic, partition = batch.topic, batch.partition = tp
        if self._tracer.enabled:
            now = batch.fetched_at = self.cluster.clock.now
            self.cluster.metrics.histogram(
                "fetch_latency_ms", topic=topic, partition=partition
            ).observe(now - fetch_started)
        return batch

    # -- lag bookkeeping --------------------------------------------------------------------

    #: Fetch round-trip EWMA smoothing; matches the gray detector's idea
    #: of "recent" without coupling to it (lag gauges exist even when
    #: hedged_fetch is off).
    RTT_ALPHA = 0.2

    def _note_fetch(
        self, tp: TopicPartition, response: ColumnarBatch, started: float
    ) -> None:
        """Update lag + RTT gauges from one fetch response.

        The fetched batch carries ``next_offset`` plus the partition's
        high watermark and last stable offset, so lag needs no extra
        broker round trip.
        """
        end = (
            response.last_stable_offset
            if self.config.isolation_level == READ_COMMITTED
            else response.high_watermark
        )
        lag = end - response.next_offset
        if lag < 0:
            lag = 0
        gauge = self._lag_gauges.get(tp)
        if gauge is None:
            gauge = self.cluster.metrics.gauge(
                "consumer.lag",
                group=self.config.group_id or self.config.client_id,
                topic=tp.topic,
                partition=tp.partition,
            )
            self._lag_gauges[tp] = gauge
        gauge.set(lag)
        rtt = self.cluster.clock.now - started
        ewma = self._rtt_ewma
        self._rtt_ewma = (
            rtt if ewma is None else ewma + self.RTT_ALPHA * (rtt - ewma)
        )
        self._rtt_gauge.set(self._rtt_ewma)

    # -- positions & commits ---------------------------------------------------------------

    def position(self, tp: TopicPartition) -> int:
        """The next offset to fetch; a withheld partition resolves here or
        raises while the group's offsets are unstable."""
        if tp in self._withheld and not self._resolve_withheld():
            raise UnstableOffsetCommitError(
                f"{tp}: group {self.config.group_id!r} has an offset commit in flight"
            )
        if tp not in self._positions:
            self._positions[tp] = self._reset_offset(tp)
        return self._positions[tp]

    def seek(self, tp: TopicPartition, offset: int) -> None:
        self._positions[tp] = offset
        self._withheld.discard(tp)

    def seek_to_committed(self) -> None:
        """Withhold the whole assignment until the group's committed offsets
        are stable, then restart it there, as for a new assignment."""
        if self.config.group_id is None:
            raise KafkaError("seek_to_committed() requires a group_id")
        for tp in self._assignment:
            self._positions.pop(tp, None)
        self._withheld.update(self._assignment)

    def seek_to_beginning(self, tp: TopicPartition) -> None:
        self.seek(tp, self.cluster.partition_state(tp).leader_log().log_start_offset)

    def commit_sync(self, offsets: Optional[Dict[TopicPartition, int]] = None) -> None:
        """Commit positions (non-transactional; EOS commits go through the
        producer's ``send_offsets_to_transaction`` instead)."""
        if self.config.group_id is None:
            raise KafkaError("commit requires a group_id")
        if offsets is None:
            offsets = {tp: self._positions[tp] for tp in self._assignment
                       if tp in self._positions}
        if not offsets:
            return
        coordinator = self.cluster.group_coordinator
        offsets_tp = coordinator.offsets_partition(self.config.group_id)
        # A plain offset commit is an append to the offsets topic — it
        # costs a produce round trip, not a coordinator metadata update.
        # Retriable failures (leaderless offsets partition, dead broker,
        # dropped request) are ridden out for ``default_api_timeout_ms``;
        # the last one is then the caller's to degrade on. Non-retriable
        # rejections (stale generation) pass through.
        call_with_retry(
            self._network, self.cluster, self.config, "offset_commit", offsets_tp,
            lambda: coordinator.commit_offsets(
                self.config.group_id,
                offsets,
                member_id=self._member_id,
                generation=self._generation if self._member_id else None,
            ),
            self.cluster.costs.produce(len(offsets)),
            timeout_ms=self.config.default_api_timeout_ms,
            kind="coordinator_retry", detail={"api": "offset_commit"},
        )

    def close(self) -> None:
        if self._closed:
            return
        if self._member_id is not None and self.config.group_id is not None:
            self.cluster.group_coordinator.leave_group(
                self.config.group_id, self._member_id
            )
        self._closed = True

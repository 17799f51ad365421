"""The simulated Kafka cluster.

Owns brokers (failure domains), topics and their replicated partitions, the
group and transaction coordinators, and the shared virtual clock + network.
All RPC entry points used by the clients live here (`handle_produce`,
`handle_fetch`, coordinator accessors); clients reach them *through* the
:class:`~repro.sim.network.Network` so latency and faults apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import READ_COMMITTED, BrokerConfig
from repro.errors import (
    BrokerUnavailableError,
    NotEnoughReplicasError,
    NotLeaderError,
    TopicAlreadyExistsError,
    UnknownTopicOrPartitionError,
)
from repro.broker.fetch import fetch
from repro.broker.group_coordinator import GroupCoordinator
from repro.broker.partition import (
    CONSUMER_OFFSETS_TOPIC,
    TRANSACTION_STATE_TOPIC,
    PartitionState,
    TopicPartition,
)
from repro.broker.txn_coordinator import TransactionCoordinator
from repro.log.columnar import ColumnarBatch, ColumnarSlab
from repro.log.partition_log import AppendResult
from repro.metrics.registry import MetricsRegistry
from repro.obs.recovery import NO_RECOVERY
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.network import Network
from repro.util import RouteMemo, partition_for

# How many partitions each coordinator's own log is spread over.
OFFSETS_TOPIC_PARTITIONS = 4
TRANSACTION_LOG_PARTITIONS = 4


@dataclass
class Broker:
    """A failure domain hosting partition replicas."""

    broker_id: int
    alive: bool = True


@dataclass
class TopicMetadata:
    name: str
    num_partitions: int
    replication_factor: int
    internal: bool = False


class Cluster:
    """A complete in-process Kafka cluster on a virtual clock."""

    def __init__(
        self,
        num_brokers: int = 3,
        config: Optional[BrokerConfig] = None,
        seed: int = 17,
    ) -> None:
        if num_brokers < 1:
            raise ValueError("need at least one broker")
        self.config = config or BrokerConfig()
        self.config.validate()
        self.clock = SimClock()
        # One registry for brokers and the network, so fault-injection
        # counters land next to the broker counters chaos runs report.
        self.metrics = MetricsRegistry()
        # Always a real (if disabled) tracer on the shared clock, so every
        # component can cache the reference at construction and tracing can
        # be toggled at any point (`cluster.tracer.enabled = True`).
        self.tracer = Tracer(self.clock)
        self.costs = CostModel()
        self.network = Network(
            self.clock, self.costs, seed=seed, metrics=self.metrics
        )
        self.network.tracer = self.tracer
        self.brokers: Dict[int, Broker] = {
            i: Broker(broker_id=i) for i in range(num_brokers)
        }
        self.topics: Dict[str, TopicMetadata] = {}
        self._partitions: Dict[TopicPartition, PartitionState] = {}
        self._placement_cursor = 0
        self._next_producer_id = 1
        # topic -> (its TopicPartitions indexed by partition number, the
        # default partitioner's key -> TopicPartition memo): a topic keeps
        # the partition count it was created with, so every producer and
        # Streams sink on this cluster routes through the one memo
        # (``route_of``) and a key is hashed once, not once per client.
        self._routes: Dict[str, Tuple[List[TopicPartition], RouteMemo]] = {}
        # ``broker.produced_records``, registered on the first counted
        # produce, so a cluster that stored no record lists no such counter
        # (a registry reset keeps the held reference valid).
        self._produced_records = None
        # Where components note recovery milestones; a RecoveryTracker
        # (repro.obs.recovery) puts itself here with ``install()``.
        self.recovery = NO_RECOVERY
        # Optional HealthMonitor (repro.obs.health), installed by its
        # ``install()``; chaos debug bundles attach its report when set.
        self.health = None

        self.group_coordinator = GroupCoordinator(self)
        self.txn_coordinator = TransactionCoordinator(self)
        self._create_internal_topics()

    def _create_internal_topics(self) -> None:
        self.create_topic(
            CONSUMER_OFFSETS_TOPIC,
            OFFSETS_TOPIC_PARTITIONS,
            internal=True,
        )
        self.create_topic(
            TRANSACTION_STATE_TOPIC,
            TRANSACTION_LOG_PARTITIONS,
            internal=True,
        )

    # -- producer ids -----------------------------------------------------------------

    def allocate_producer_id(self) -> int:
        """Cluster-unique producer id (idempotent and transactional alike)."""
        pid = self._next_producer_id
        self._next_producer_id += 1
        return pid

    def reserve_producer_id(self, minimum: int) -> None:
        """Ensure future allocations start at or above ``minimum``."""
        self._next_producer_id = max(self._next_producer_id, minimum)

    # -- topics --------------------------------------------------------------------

    def create_topic(
        self,
        name: str,
        num_partitions: int,
        replication_factor: Optional[int] = None,
        internal: bool = False,
    ) -> TopicMetadata:
        if name in self.topics:
            raise TopicAlreadyExistsError(name)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        rf = replication_factor or min(self.config.replication_factor, len(self.brokers))
        rf = min(rf, len(self.brokers))
        meta = TopicMetadata(name, num_partitions, rf, internal)
        self.topics[name] = meta
        for p in range(num_partitions):
            tp = TopicPartition(name, p)
            broker_ids = self._place_replicas(rf)
            self._partitions[tp] = PartitionState(
                tp,
                broker_ids,
                min_insync_replicas=min(self.config.min_insync_replicas, rf),
            )
        return meta

    def _place_replicas(self, rf: int) -> List[int]:
        """Round-robin replica placement across brokers."""
        ids = sorted(self.brokers)
        chosen = []
        for i in range(rf):
            chosen.append(ids[(self._placement_cursor + i) % len(ids)])
        self._placement_cursor += 1
        return chosen

    def topic_metadata(self, name: str) -> TopicMetadata:
        meta = self.topics.get(name)
        if meta is None:
            raise UnknownTopicOrPartitionError(name)
        return meta

    def has_topic(self, name: str) -> bool:
        return name in self.topics

    def partitions_for(self, topic: str) -> List[TopicPartition]:
        meta = self.topic_metadata(topic)
        return [TopicPartition(topic, p) for p in range(meta.num_partitions)]

    def route_of(self, topic: str) -> Tuple[List[TopicPartition], RouteMemo]:
        """``topic``'s partition table and its key memo (``memo[key]`` is
        the key's ``TopicPartition`` under the default partitioner), both
        made on the topic's first use and kept for the cluster's
        lifetime."""
        route = self._routes.get(topic)
        if route is None:
            table = self.partitions_for(topic)
            count = len(table)
            route = self._routes[topic] = (
                table, RouteMemo(lambda key: table[partition_for(key, count)])
            )
        return route

    def partition_state(self, tp: TopicPartition) -> PartitionState:
        state = self._partitions.get(tp)
        if state is None:
            raise UnknownTopicOrPartitionError(str(tp))
        return state

    def leader_of(self, tp: TopicPartition) -> int:
        leader = self.partition_state(tp).leader
        if leader is None:
            raise BrokerUnavailableError(f"{tp}: no live leader")
        return leader

    # -- invariant probes (read-only; used by repro.sim.invariants) -----------------

    def partition_states(self) -> Dict[TopicPartition, PartitionState]:
        """Every partition's replica state. Read-only view — do not mutate."""
        return self._partitions

    def user_topics(self) -> List[str]:
        """Topics that are not cluster-internal (``__``-prefixed)."""
        return sorted(name for name, meta in self.topics.items() if not meta.internal)

    def is_broker_alive(self, broker_id: int) -> bool:
        return self.brokers[broker_id].alive

    def transfer_leadership(self, tp: TopicPartition) -> Optional[int]:
        """Move leadership of ``tp`` to another in-sync replica (preferred
        leader election / controlled churn). Returns the new leader id, or
        ``None`` when no other ISR member exists. Only ISR members are
        eligible — they hold every acked record, so no data moves."""
        state = self.partition_state(tp)
        candidates = sorted(state.isr - ({state.leader} if state.leader is not None else set()))
        if not candidates:
            return None
        old = state.leader
        state.transfer_leadership(candidates[0])
        if self.tracer.enabled:
            self.tracer.event(
                "partition.leader_change",
                f"broker-{state.leader}",
                str(tp),
                category="lifecycle",
                previous=old,
            )
        return state.leader

    # -- tracing ---------------------------------------------------------------------

    def enable_tracing(self) -> Tracer:
        """Switch the cluster-wide tracer on; returns it for convenience."""
        self.tracer.enabled = True
        return self.tracer

    # -- RPC handlers (called through the Network by clients) -----------------------

    def handle_produce(
        self, tp: TopicPartition, batch: ColumnarSlab, acks: str = "all"
    ) -> AppendResult:
        state = self._partitions.get(tp)
        if state is None:
            raise UnknownTopicOrPartitionError(str(tp))
        try:
            result = state.append(batch, acks=acks)
        except NotEnoughReplicasError:
            # Surface under-replicated rejections: chaos runs and the
            # min-ISR tests observe how often acks=all writes were refused.
            self.metrics.counter("broker.not_enough_replicas").increment()
            raise
        if not result.duplicate:
            produced = self._produced_records
            if produced is None:
                produced = self._produced_records = self.metrics.counter(
                    "broker.produced_records"
                )
            produced.increment(len(batch.keys))
        return result

    def handle_fetch(
        self,
        tp: TopicPartition,
        from_offset: int,
        max_records: int,
        isolation_level: str,
        replica: Optional[int] = None,
    ) -> ColumnarBatch:
        """Serve a fetch from the leader, or — with ``replica`` — from that
        *specific* in-sync replica (KIP-392-style follower read), used by
        the gray-failure hedge when the leader is demoted.

        Only ISR members serve: their logs hold every acked record and —
        since followers mirror the leader's index state — the same
        high-watermark/LSO bounds, so a follower read never returns
        uncommitted or unreplicated data."""
        state = self.partition_state(tp)
        if replica is None:
            log = state.leader_log()
        else:
            if not self.brokers[replica].alive:
                raise BrokerUnavailableError(f"broker {replica} is down (fetch)")
            if replica not in state.isr:
                raise NotLeaderError(
                    f"{tp}: broker {replica} is not in the ISR; cannot serve reads"
                )
            log = state.replica_log(replica)
        batch = fetch(log, from_offset, max_records, isolation_level)
        if batch.valid_count:
            self.metrics.counter("broker.fetched_records").increment(
                batch.valid_count
            )
            if replica is not None:
                self.metrics.counter("broker.follower_reads").increment()
        return batch

    def end_offset(self, tp: TopicPartition, isolation_level: str) -> int:
        """The offset a new consumer with ``latest`` reset would start from."""
        log = self.partition_state(tp).leader_log()
        if isolation_level == READ_COMMITTED:
            return log.last_stable_offset
        return log.high_watermark

    def delete_records(self, tp: TopicPartition, before_offset: int) -> int:
        """Purge records below ``before_offset`` (repartition-topic cleanup)."""
        return self.partition_state(tp).delete_records_before(before_offset)

    # -- failure handling -------------------------------------------------------------

    def crash_broker(self, broker_id: int) -> None:
        """Fail a broker: partitions it led elect new leaders from the ISR;
        coordinators whose log partitions moved rebuild from the logs."""
        broker = self.brokers[broker_id]
        if not broker.alive:
            return
        broker.alive = False
        self.network.set_broker_down(broker_id)
        if self.tracer.enabled:
            self.tracer.event(
                "broker.crash", f"broker-{broker_id}", "lifecycle",
                category="fault",
            )
        coordinator_moved = False
        for tp, state in self._partitions.items():
            was_leader = state.leader == broker_id
            state.on_broker_failure(broker_id)
            if was_leader and tp.topic == TRANSACTION_STATE_TOPIC:
                coordinator_moved = True
        if coordinator_moved:
            # The new leader replica of the moved transaction-log partition
            # becomes the coordinator: replay the log to rebuild state and
            # complete in-flight transactions (Section 4.2.1).
            self.txn_coordinator.recover()

    def restart_broker(self, broker_id: int) -> None:
        broker = self.brokers[broker_id]
        if broker.alive:
            return
        broker.alive = True
        self.network.set_broker_down(broker_id, down=False)
        if self.tracer.enabled:
            self.tracer.event(
                "broker.restart", f"broker-{broker_id}", "lifecycle",
                category="fault",
            )
        for state in self._partitions.values():
            state.on_broker_restart(broker_id)

    def alive_brokers(self) -> List[int]:
        return sorted(b.broker_id for b in self.brokers.values() if b.alive)

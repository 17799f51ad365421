"""MirrorLink: MirrorMaker-2-style replication between two clusters.

A :class:`MirrorLink` is a driver actor living in the *target* region. Each
``poll()`` it

* fetches the next **read-committed** records from the source partitions
  through the inter-cluster link (aborted or still-open transactional data
  never crosses a link — the cross-cluster extension of Section 4.2.3's
  isolation contract);
* re-appends them, keys/values/timestamps/headers intact, to the same
  topic-partitions on the target cluster with a local idempotent producer;
* records the resulting ``(source, target)`` offset pairs in its
  :class:`~repro.mirror.translation.OffsetTranslator` and persists a sparse
  checkpoint stream to a compacted ``__mirror.<name>.checkpoints`` topic on
  the target, so a restarted link translates previously-synced offsets
  exactly;
* refreshes the per-partition replication-lag and translation-gap gauges
  (``mirror.lag`` / ``mirror.translation_gap`` in the target registry, the
  series the health SLOs watch);
* periodically syncs configured consumer groups' committed offsets:
  translated offsets are published to the target group coordinator only
  for positions the mirror has fully caught up to (exact translation), so
  a failed-over application resumes at-or-before its source position and
  never skips acknowledged input.

The mirror's own source position is committed under the ``__mirror-<name>``
group on the *source* cluster after every appended batch, which is what
lets a restarted link resume without duplicating target records.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import READ_COMMITTED, READ_UNCOMMITTED, ConsumerConfig, ProducerConfig
from repro.errors import RetriableError
from repro.mirror.netlink import InterClusterLink
from repro.mirror.translation import OffsetTranslator


class MirrorLink:
    """Replicate ``topics`` from ``link.source`` to ``link.target``."""

    def __init__(
        self,
        link: InterClusterLink,
        topics: Iterable[str],
        sync_groups: Iterable[str] = (),
        name: Optional[str] = None,
        group_sync_interval_ms: float = 100.0,
        source=None,
        target=None,
    ) -> None:
        self.link = link
        # The link is an undirected path; the mirror's direction is its
        # own (defaults to the link's construction order).
        self.source = link.source if source is None else source
        self.target = link.target if target is None else target
        if {id(self.source), id(self.target)} != {
            id(link.source), id(link.target)
        }:
            raise ValueError(
                f"mirror endpoints must be the endpoints of link {link.name}"
            )
        self.topics = tuple(sorted(topics))
        if not self.topics:
            raise ValueError("a mirror link needs at least one topic")
        self.sync_groups = tuple(sorted(sync_groups))
        self.name = name or (
            f"mirror-{getattr(self.source, 'name', 'source')}-"
            f"{getattr(self.target, 'name', 'target')}"
        )
        self.group_sync_interval_ms = group_sync_interval_ms
        self.translator = OffsetTranslator()
        self.records_mirrored = 0
        self.group_syncs = 0
        self._last_group_sync_ms = float("-inf")
        self._checkpoint_topic = f"__mirror.{self.name}.checkpoints"

        self._partitions: List[TopicPartition] = []
        for topic in self.topics:
            meta = self.source.topic_metadata(topic)
            if not self.target.has_topic(topic):
                self.target.create_topic(
                    topic, meta.num_partitions, compacted=meta.compacted
                )
            self._partitions.extend(
                TopicPartition(topic, p) for p in range(meta.num_partitions)
            )
        if not self.target.has_topic(self._checkpoint_topic):
            self.target.create_topic(
                self._checkpoint_topic, 1, compacted=True, internal=True
            )
        self._replay_checkpoints()

        # Remote read-committed source consumer: reaches the source
        # cluster's brokers only through the inter-cluster link's network
        # proxy. Position commits ride the same path to the source group
        # coordinator under this mirror's own group id.
        self._consumer = Consumer(
            self.source,
            ConsumerConfig(
                client_id=self.name,
                group_id=f"__{self.name}",
                isolation_level=READ_COMMITTED,
                auto_offset_reset="earliest",
                # Bounded WAN retries: a link cut mid-commit should stall
                # this one cycle, not spin the clock through a 60s budget.
                default_api_timeout_ms=500.0,
            ),
            network=link.network_to(self.source),
        )
        self._consumer.assign(list(self._partitions))
        self._resume_from_committed()

        # Target-local idempotent producer: the sole writer of the
        # mirrored partitions, which is what keeps their offsets dense.
        self._producer = Producer(
            self.target, ProducerConfig(client_id=f"{self.name}-producer")
        )

        # Polled from the source and handed to the producer, but not yet
        # in the target log (a flush gave up on them): per partition, the
        # target offset they will land at and their source offsets. The
        # records themselves wait in the producer's buffer.
        self._in_flight: Dict[TopicPartition, Tuple[int, List[int]]] = {}

        self._lag_gauges: Dict[TopicPartition, object] = {}
        self._gap_gauges: Dict[TopicPartition, object] = {}

    # -- restart paths ------------------------------------------------------

    def _replay_checkpoints(self) -> None:
        """Rebuild the translator's exact pairs from the checkpoint topic
        (empty on a fresh link; the whole point after a restart)."""
        tp = TopicPartition(self._checkpoint_topic, 0)
        log = self.target.partition_state(tp).leader_log()
        result = fetch(
            log, log.log_start_offset, max_records=2**31,
            isolation_level=READ_UNCOMMITTED,
        )
        _, _, keys, values, _ = result.columns()
        for (_kind, _group, topic, partition), (src, dst) in zip(keys, values):
            self.translator.record_checkpoint(
                TopicPartition(topic, partition), src, dst
            )

    def _resume_from_committed(self) -> None:
        for tp in self._partitions:
            committed = self._consumer.committed(tp)
            if committed is not None:
                self._consumer.seek(tp, committed)

    # -- actor protocol (repro.sim.scheduler.Driver) ------------------------

    def poll(self) -> int:
        if not self.link.up:
            self._update_gauges()
            return 0
        try:
            records = self._consumer.poll()
        except RetriableError:
            self._update_gauges()
            return 0
        mirrored = self._mirror(records) if records or self._in_flight else 0
        now = self.source.clock.now
        if now - self._last_group_sync_ms >= self.group_sync_interval_ms:
            self._last_group_sync_ms = now
            try:
                self.sync_group_offsets()
            except RetriableError:
                pass  # link cut mid-sync: retried next interval
        self._update_gauges()
        return mirrored

    def flush(self) -> None:
        """Idle housekeeping: push committed positions and group syncs out
        even when no new records arrived this cycle."""
        if not self.link.up:
            return
        try:
            self.sync_group_offsets()
        except RetriableError:
            pass

    # -- replication --------------------------------------------------------

    def _mirror(self, records) -> int:
        by_tp: Dict[TopicPartition, List] = {}
        for record in records:
            tp = TopicPartition(record.topic, record.partition)
            by_tp.setdefault(tp, []).append(record)
        try:
            for tp, group in sorted(by_tp.items()):
                # Polled, so not paused, so nothing of it is in flight.
                self._in_flight[tp] = (
                    self.target.end_offset(tp, READ_UNCOMMITTED),
                    [r.offset for r in group],
                )
                for record in group:
                    self._producer.send(
                        tp.topic,
                        key=record.key,
                        value=record.value,
                        timestamp=record.timestamp,
                        headers=record.headers,
                        partition=tp.partition,
                    )
            self._producer.flush()
        except RetriableError:
            # The target gave up on one partition: what the flush delivered
            # before it is accounted now, the rest stays in the producer's
            # buffer (under the sequence numbers it was first sent with)
            # and goes out with the next flush.
            pass
        mirrored = 0
        positions: Dict[TopicPartition, int] = {}
        for tp, (base, src_offsets) in sorted(self._in_flight.items()):
            # One poll's records of one partition are one slab (a poll
            # returns no more than the producer batches): in the log
            # whole, or not at all.
            if self.target.end_offset(tp, READ_UNCOMMITTED) == base:
                self._consumer.pause(tp)    # read no further ahead of it
                continue
            del self._in_flight[tp]
            self._consumer.resume(tp)
            positions[tp] = self._consumer.position(tp)
            self.translator.record_batch(tp, src_offsets, base)
            mirrored += len(src_offsets)
            # Every appended batch ends at an exact sync point: committed
            # offset src+1 on the source == dst+1 on the target.
            last_src, last_dst = src_offsets[-1], base + len(src_offsets) - 1
            self._checkpoint("sync", "", tp, last_src + 1, last_dst + 1)
        self.records_mirrored += mirrored
        # Persist the mirror's own position so a restarted link resumes
        # instead of re-copying (charged as one WAN round trip). A commit
        # lost to a link cut only widens the restart re-read window; the
        # in-memory position keeps this link exact.
        try:
            self._consumer.commit_sync(positions)
        except RetriableError:
            pass
        return mirrored

    def _checkpoint(
        self, kind: str, group: str, tp: TopicPartition, src: int, dst: int
    ) -> None:
        self.translator.record_checkpoint(tp, src, dst)
        self._producer.send(
            self._checkpoint_topic,
            key=(kind, group, tp.topic, tp.partition),
            value=(src, dst),
            partition=0,
        )

    # -- consumer-group offset sync -----------------------------------------

    def sync_group_offsets(self) -> Dict[str, Dict[TopicPartition, int]]:
        """Translate and publish configured groups' committed offsets.

        Coherence rule: a partition's offset is synced only when the
        mirror's own position has passed it — every record below the
        offset already exists on the target, so the translation is exact
        and the failed-over group can never miss acknowledged input. A
        still-lagging partition's sync is simply deferred to a later pass.
        Groups with live members on the target (an application already
        running there) are skipped — their offsets are theirs to own.
        """
        published: Dict[str, Dict[TopicPartition, int]] = {}
        for group in self.sync_groups:
            if self.target.group_coordinator.assignment_snapshot(group):
                continue
            committed = self._fetch_source_committed(group)
            offsets: Dict[TopicPartition, int] = {}
            for tp, src_offset in sorted(committed.items()):
                if src_offset is None:
                    continue
                if src_offset > self._consumer.position(tp) or tp in self._in_flight:
                    continue  # not yet mirrored: defer, don't approximate
                dst_offset = self.translator.to_target(tp, src_offset)
                self._checkpoint("group", group, tp, src_offset, dst_offset)
                offsets[tp] = dst_offset
            if not offsets:
                continue
            self._producer.flush()
            self.target.group_coordinator.commit_offsets(group, offsets)
            self.group_syncs += 1
            published[group] = offsets
        return published

    def _fetch_source_committed(
        self, group: str
    ) -> Dict[TopicPartition, Optional[int]]:
        """The group's committed offsets on the source, charged as one
        WAN coordinator round trip."""
        coordinator = self.source.group_coordinator
        offsets_tp = coordinator.offsets_partition(group)
        network = self._consumer._network
        return network.call(
            "offset_fetch",
            self.source.leader_of(offsets_tp),
            lambda: coordinator.fetch_committed(group, self._partitions),
            base_cost_ms=network.coordinator_cost(),
            src=self.name,
        )

    # -- observability ------------------------------------------------------

    def lag(self, tp: TopicPartition) -> int:
        """Source records not yet in the target log: those still to be
        read (read-committed end - position) and those read but in flight."""
        end = self.source.end_offset(tp, READ_COMMITTED)
        _, in_flight = self._in_flight.get(tp, (0, ()))
        return max(0, end - self._consumer.position(tp)) + len(in_flight)

    def lags(self) -> Dict[TopicPartition, int]:
        return {tp: self.lag(tp) for tp in self._partitions}

    def drained(self) -> bool:
        """True when every mirrored partition is fully caught up — the
        gate a *planned* failover waits on before moving the application."""
        return all(self.lag(tp) == 0 for tp in self._partitions)

    def _update_gauges(self) -> None:
        metrics = self.target.metrics
        for tp in self._partitions:
            gauge = self._lag_gauges.get(tp)
            if gauge is None:
                gauge = metrics.gauge(
                    "mirror.lag",
                    link=self.name, topic=tp.topic, partition=tp.partition,
                )
                self._lag_gauges[tp] = gauge
            gauge.set(self.lag(tp))
            gap = self._gap_gauges.get(tp)
            if gap is None:
                gap = metrics.gauge(
                    "mirror.translation_gap",
                    link=self.name, topic=tp.topic, partition=tp.partition,
                )
                self._gap_gauges[tp] = gap
            gap.set(
                self.translator.translation_gap(
                    tp, self._consumer.position(tp)
                )
            )

    def close(self) -> None:
        self._producer.close()
        self._consumer.close()

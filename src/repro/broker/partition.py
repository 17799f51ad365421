"""Topic partitions and their replica sets.

A :class:`PartitionState` owns one replica :class:`~repro.log.PartitionLog`
per assigned broker, tracks the leader and the in-sync replica set (ISR),
and implements the replication contract of Section 4 of the paper: a record
acknowledged with ``acks=all`` is replicated to every in-sync replica before
the acknowledgement, so the partition survives n−1 broker failures without
losing acknowledged data.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, NamedTuple, Optional, Set

from repro.errors import (
    NotEnoughReplicasError,
    NotLeaderError,
)
from repro.log.partition_log import AppendResult, PartitionLog
from repro.log.record import Record, RecordBatch


class TopicPartition(NamedTuple):
    """Identifies one partition of one topic."""

    topic: str
    partition: int

    def __repr__(self) -> str:
        return f"{self.topic}-{self.partition}"


# Internal topic naming (matches Kafka's conventions).
CONSUMER_OFFSETS_TOPIC = "__consumer_offsets"
TRANSACTION_STATE_TOPIC = "__transaction_state"


def repartition_topic(application_id: str, name: str) -> str:
    return f"{application_id}-{name}-repartition"


def changelog_topic(application_id: str, store_name: str) -> str:
    return f"{application_id}-{store_name}-changelog"


def is_internal_topic(topic: str) -> bool:
    return topic.startswith("__")


class PartitionOffsets(NamedTuple):
    """One partition's offset landmarks, as of one virtual instant.

    ``log_end`` is the leader's append cursor, ``high_watermark`` the
    replication frontier visible to read-uncommitted readers, and
    ``last_stable_offset`` the transaction frontier visible to
    read-committed readers. ``log_start`` moves with retention deletes.
    """

    log_start: int
    log_end: int
    high_watermark: int
    last_stable_offset: int


class PartitionState:
    """Replica set, leadership, and ISR for one topic partition."""

    def __init__(
        self,
        tp: TopicPartition,
        broker_ids: List[int],
        min_insync_replicas: int = 1,
        compacted: bool = False,
    ) -> None:
        if not broker_ids:
            raise ValueError("a partition needs at least one replica")
        self.tp = tp
        self.replicas: Dict[int, PartitionLog] = {
            b: PartitionLog(name=f"{tp}@{b}") for b in broker_ids
        }
        self.leader: Optional[int] = broker_ids[0]
        self.isr: Set[int] = set(broker_ids)
        self.min_insync_replicas = min_insync_replicas
        self.compacted = compacted
        # Clean-election bookkeeping: when the whole ISR is gone, only the
        # replicas that were in the ISR at that moment hold every acked
        # record and may lead again. Others wait (no unclean election).
        self._eligible_leaders: Set[int] = set()
        self._waiting_replicas: Set[int] = set()

    # -- leadership ------------------------------------------------------------

    def leader_log(self) -> PartitionLog:
        if self.leader is None:
            raise NotLeaderError(f"{self.tp}: no leader available")
        return self.replicas[self.leader]

    def watermarks(self) -> PartitionOffsets:
        """The leader's offset landmarks (raises while leaderless)."""
        log = self.leader_log()
        return PartitionOffsets(
            log_start=log.log_start_offset,
            log_end=log.log_end_offset,
            high_watermark=log.high_watermark,
            last_stable_offset=log.last_stable_offset,
        )

    def on_broker_failure(self, broker_id: int) -> None:
        """Remove the broker from the ISR; elect a new leader if needed."""
        if broker_id not in self.replicas:
            return
        was_last_insync = self.isr == {broker_id}
        self.isr.discard(broker_id)
        self._waiting_replicas.discard(broker_id)
        if was_last_insync:
            # The partition is now fully unavailable; remember who is
            # allowed to lead when brokers return.
            self._eligible_leaders = {broker_id}
        if self.leader == broker_id:
            self._elect_leader()

    def on_broker_restart(self, broker_id: int) -> None:
        """Bring a restarted broker's replica back in sync and into the ISR."""
        if broker_id not in self.replicas:
            return
        if self.leader is None:
            if broker_id not in self._eligible_leaders:
                # Clean election only: this replica was already out of the
                # ISR when the partition went down, so it may be missing
                # acked records. It waits for an eligible leader.
                self._waiting_replicas.add(broker_id)
                return
            # The returning replica held every acked record when the
            # partition went down; it leads, and replicas that returned
            # earlier catch up from it now.
            self.leader = broker_id
            self.isr = {broker_id}
            self._eligible_leaders = set()
            for waiting in sorted(self._waiting_replicas):
                self._rejoin(waiting)
            self._waiting_replicas.clear()
            return
        # The returning replica may have diverged (e.g. it led briefly with
        # unacked appends). Truncate to its longest common prefix with the
        # current leader before catching up — the in-memory equivalent of
        # Kafka's leader-epoch-based truncation.
        self._rejoin(broker_id)

    def _rejoin(self, broker_id: int) -> None:
        self._truncate_divergence(broker_id)
        self._sync_follower(self.replicas[broker_id], self.leader_log())
        self.isr.add(broker_id)

    def _truncate_divergence(self, broker_id: int) -> None:
        """Cut the replica at the first offset of the overlap that one log
        holds and the other does not, or holds differently."""
        leader_log = self.leader_log()
        follower = self.replicas[broker_id]
        start = max(follower.log_start_offset, leader_log.log_start_offset)
        end = min(follower.log_end_offset, leader_log.log_end_offset)
        cut = end
        if start < end:
            mine = follower.read(start, end - start, end)
            theirs = leader_log.read(start, end - start, end)
            # Mirrored stored batches are the leader's own objects, and two
            # views over the same batches are equal without materializing a
            # record: pointer compares if undiverged.
            if mine != theirs:
                cut = next(
                    min(r.offset for r in pair if r is not None)
                    for pair in zip_longest(mine, theirs)
                    if pair[0] != pair[1]
                )
        follower.truncate_to(cut)

    def _elect_leader(self) -> None:
        """Prefer an in-sync replica (clean election)."""
        candidates = sorted(self.isr)
        if candidates:
            self.leader = candidates[0]
        else:
            self.leader = None

    # -- appends ------------------------------------------------------------------

    def append(self, batch: RecordBatch, acks: str = "all") -> AppendResult:
        """Append on the leader and replicate.

        ``acks="all"`` replicates synchronously to every in-sync follower
        and advances the high watermark before returning (the paper's
        durability contract). ``acks="1"`` returns after the leader append;
        the data is exposed only after a later replication round.
        """
        if acks == "all" and len(self.isr) < self.min_insync_replicas:
            raise NotEnoughReplicasError(
                f"{self.tp}: ISR {sorted(self.isr)} below min "
                f"{self.min_insync_replicas}"
            )
        leader_log = self.leader_log()
        result = leader_log.append_batch(batch)
        if acks == "all":
            self.replicate()
        return result

    def append_marker(self, marker: Record) -> int:
        """Append a transaction marker on the leader and replicate it."""
        offset = self.leader_log().append_marker(marker)
        self.replicate()
        return offset

    def replicate(self) -> None:
        """Follower fetch round: copy new leader records to in-sync
        followers and advance the high watermark to min(ISR log ends)."""
        leader_log = self.leader_log()
        hw = leader_log.log_end_offset
        for broker_id in self.isr:
            if broker_id != self.leader:
                follower = self.replicas[broker_id]
                self._sync_follower(follower, leader_log)
                hw = min(hw, follower.log_end_offset)
        if hw > leader_log.high_watermark:
            leader_log.high_watermark = hw
            for broker_id in self.isr:
                self.replicas[broker_id].high_watermark = hw

    @staticmethod
    def _sync_follower(follower: PartitionLog, leader_log: PartitionLog) -> None:
        if follower.log_start_offset < leader_log.log_start_offset:
            # The follower missed a delete on the leader (e.g. repartition-
            # topic purging): what it holds can no longer be checked against
            # the leader and may end before the leader's log starts. Resync.
            follower.reset_to(leader_log.log_start_offset)
        if follower.log_end_offset > leader_log.log_end_offset:
            # The follower diverged (e.g. it briefly led with unacked
            # appends); truncate to the leader.
            follower.truncate_to(leader_log.log_end_offset)
        # A prefix of the leader now. Mirror even if no record is missing:
        # a truncation leaves index state that only a sync replaces.
        follower.replicate_mirror(leader_log)
        follower.high_watermark = leader_log.high_watermark
        follower.log_start_offset = leader_log.log_start_offset

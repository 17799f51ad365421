"""Topic partitions and their replica sets.

A :class:`PartitionState` owns one replica :class:`~repro.log.PartitionLog`
per assigned broker, tracks the leader and the in-sync replica set (ISR),
and implements the replication contract of Section 4 of the paper: a record
acknowledged with ``acks=all`` is replicated to every in-sync replica before
the acknowledgement, so the partition survives n−1 broker failures without
losing acknowledged data.

Nothing reads a follower's log between faults, so the copy itself is made
on demand: :meth:`PartitionState.replicate` notes what the in-sync followers
owe and every path that could observe or freeze a follower pays the debt
first (DESIGN.md, "Replication: what a follower sync touches"). All of
those paths live in this module.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, NamedTuple, Optional, Set

from repro.errors import (
    NotEnoughReplicasError,
    NotLeaderError,
)
from repro.log.columnar import ColumnarSlab
from repro.log.partition_log import AppendResult, PartitionLog


class TopicPartition(NamedTuple):
    """Identifies one partition of one topic."""

    topic: str
    partition: int

    def __repr__(self) -> str:
        return f"{self.topic}-{self.partition}"


# Internal topic naming (matches Kafka's conventions).
CONSUMER_OFFSETS_TOPIC = "__consumer_offsets"
TRANSACTION_STATE_TOPIC = "__transaction_state"


def changelog_topic(application_id: str, store_name: str) -> str:
    return f"{application_id}-{store_name}-changelog"


class PartitionState:
    """Replica set, leadership, and ISR for one topic partition."""

    def __init__(
        self,
        tp: TopicPartition,
        broker_ids: List[int],
        min_insync_replicas: int = 1,
    ) -> None:
        if not broker_ids:
            raise ValueError("a partition needs at least one replica")
        self.tp = tp
        self._replicas: Dict[int, PartitionLog] = {
            b: PartitionLog(name=f"{tp}@{b}") for b in broker_ids
        }
        self.leader: Optional[int] = broker_ids[0]
        self.isr: Set[int] = set(broker_ids)
        # The leader log end the in-sync followers owe a sync up to, set by
        # replicate() and paid by _settle(); None while they are level.
        self._owed_end: Optional[int] = None
        self.min_insync_replicas = min_insync_replicas
        # Clean-election bookkeeping: when the whole ISR is gone, only the
        # replicas that were in the ISR at that moment hold every acked
        # record and may lead again. Others wait (no unclean election).
        self._eligible_leaders: Set[int] = set()
        self._waiting_replicas: Set[int] = set()

    # -- replicas ----------------------------------------------------------------

    def replica_log(self, broker_id: int) -> PartitionLog:
        """One replica's log, level with the leader if it is in sync:
        looking at a follower is what brings it level. The log is current
        as returned; after a later append, ask again."""
        self._settle()
        return self._replicas[broker_id]

    def _settle(self) -> None:
        """Pay the sync :meth:`replicate` deferred: one mirror per in-sync
        follower, over however many batches were acknowledged since.

        Runs before anything observes a follower or changes who is one
        (``replica_log``, broker failure / restart, leadership transfer) and
        before the leader log changes in any way other than an acknowledged
        append (``acks != "all"``, record deletion)."""
        owed = self._owed_end
        if owed is None:
            return
        leader_log = self._replicas[self.leader]
        if leader_log.log_end_offset != owed:
            # Syncing now would replicate records nobody acknowledged.
            raise RuntimeError(
                f"{self.tp}: followers owe a sync up to offset {owed} but the "
                f"leader log ends at {leader_log.log_end_offset}; it was "
                f"appended to without PartitionState.append"
            )
        self._owed_end = None
        self._sync_followers()

    def _sync_followers(self) -> None:
        """Bring every in-sync follower to the leader's log: paying the
        debt, and after an election.

        Every in-sync log is a prefix of the leader's, and of the old
        leader's when a new one is elected — so what a follower then holds
        past the new leader's end is an ``acks=1`` suffix nobody
        acknowledged (the old leader's own, or one a rejoining follower
        copied). It is cut at the election, as Kafka's leader-epoch
        truncation does: left in place it would be trimmed only by length,
        and a record the new leader never had would sit below the high
        watermark on an in-sync replica."""
        leader_log = self._replicas[self.leader]
        for broker_id in self.isr:
            if broker_id != self.leader:
                self._sync_follower(self._replicas[broker_id], leader_log)

    # -- leadership ------------------------------------------------------------

    def leader_log(self) -> PartitionLog:
        """The leader's log as it is — on every fetch and append, so it
        settles nothing: the leader is never behind itself."""
        if self.leader is None:
            raise NotLeaderError(f"{self.tp}: no leader available")
        return self._replicas[self.leader]

    def on_broker_failure(self, broker_id: int) -> None:
        """Remove the broker from the ISR; elect a new leader if needed."""
        if broker_id not in self._replicas:
            return
        self._settle()
        was_last_insync = self.isr == {broker_id}
        self.isr.discard(broker_id)
        self._waiting_replicas.discard(broker_id)
        if was_last_insync:
            # The partition is now fully unavailable; remember who is
            # allowed to lead when brokers return.
            self._eligible_leaders = {broker_id}
        if self.leader == broker_id:
            # Clean election: only an in-sync replica may lead.
            self.leader = min(self.isr, default=None)
            if self.leader is not None:
                self._sync_followers()

    def on_broker_restart(self, broker_id: int) -> None:
        """Bring a restarted broker's replica back in sync and into the ISR."""
        if broker_id not in self._replicas:
            return
        self._settle()
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
        # Reached from on_broker_restart only, which has settled.
        self._truncate_divergence(broker_id)
        self._sync_follower(self._replicas[broker_id], self.leader_log())
        self.isr.add(broker_id)

    def transfer_leadership(self, to: int) -> None:
        """Hand leadership to the in-sync replica ``to``. It holds every
        acknowledged record once the followers are level."""
        self._settle()
        if to not in self.isr:
            raise NotLeaderError(f"{self.tp}: broker {to} is not in the ISR")
        self.leader = to
        # The old leader stays in the ISR, as a follower of the new log.
        self._sync_followers()

    def _truncate_divergence(self, broker_id: int) -> None:
        """Cut the replica at the first offset of the overlap that one log
        holds and the other does not, or holds differently."""
        leader_log = self.leader_log()
        follower = self._replicas[broker_id]
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

    # -- appends ------------------------------------------------------------------

    def append(self, batch: ColumnarSlab, acks: str = "all") -> AppendResult:
        """Append on the leader and replicate.

        ``acks="all"`` returns with the batch owed to every in-sync
        follower — none can be looked at, fail or lead before it holds the
        batch — and the high watermark advanced (the paper's durability
        contract). ``acks="1"`` returns after the leader append; the data
        is exposed only after a later replication round.
        """
        if acks == "all":
            if len(self.isr) < self.min_insync_replicas:
                raise NotEnoughReplicasError(
                    f"{self.tp}: ISR {sorted(self.isr)} below min "
                    f"{self.min_insync_replicas}"
                )
            result = self.leader_log().append_batch(batch)
            self.replicate()
            return result
        # What is owed ends here: a later settle must not carry this batch
        # to the followers, only a later replicate() may.
        self._settle()
        return self.leader_log().append_batch(batch)

    def append_marker(
        self,
        control_type: str,
        producer_id: int,
        producer_epoch: int,
        timestamp: float = -1.0,
    ) -> int:
        """Append a transaction marker on the leader and replicate it."""
        offset = self.leader_log().append_marker(
            control_type, producer_id, producer_epoch, timestamp
        )
        self.replicate()
        return offset

    def replicate(self) -> None:
        """Follower fetch round: every in-sync follower holds the leader's
        log up to its current end, and the high watermark says so.

        A sync runs to the leader's end, so min(ISR log ends) is that end;
        the copy itself waits for :meth:`_settle`, which takes the
        followers' high watermark from the leader."""
        leader_log = self.leader_log()
        end = leader_log.log_end_offset
        self._owed_end = end
        if end > leader_log.high_watermark:
            leader_log.high_watermark = end

    def delete_records_before(self, offset: int) -> int:
        """Purge records below ``offset`` on every replica (repartition-
        topic cleanup); returns how many the leader removed."""
        # Level first: a follower that misses a delete is reset and
        # mirrored again from the leader's new log start.
        self._settle()
        removed = self.leader_log().delete_records_before(offset)
        for broker_id, log in self._replicas.items():
            if broker_id != self.leader:
                log.delete_records_before(offset)
        return removed

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

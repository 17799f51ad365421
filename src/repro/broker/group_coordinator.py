"""Consumer-group coordination and durable offset commits.

Implements the group protocol the paper's Section 3.1 relies on: members
join a group, the coordinator assigns partitions and bumps a *generation*
on every membership change, and stale-generation commits are rejected so a
kicked (zombie) member cannot clobber progress.

Committed offsets are **records in the ``__consumer_offsets`` topic**
(Section 4.2: "offset commits in Kafka are translated internally as
appends to an internal Kafka topic"). Transactional producers commit
offsets *inside* their transaction by writing to this topic with their
producer id, so the offsets become visible if and only if the transaction
commits — the key to exactly-once read-process-write cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.config import COOPERATIVE, EAGER, READ_COMMITTED
from repro.errors import (
    CommitFailedError,
    IllegalGenerationError,
    UnknownMemberError,
)
from repro.broker.fetch import fetch
from repro.broker.partition import CONSUMER_OFFSETS_TOPIC, TopicPartition
from repro.log.columnar import ColumnarSlab
from repro.log.record import NO_HEADERS, NO_PRODUCER_ID
from repro.util import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster


@dataclass
class GroupMember:
    member_id: str
    subscription: Tuple[str, ...]
    assignment: List[TopicPartition] = field(default_factory=list)
    # Rebalance protocol this member offered at join. The group runs
    # cooperatively only when *every* member offers COOPERATIVE (Kafka's
    # protocol negotiation downgrades to the common denominator).
    protocol: str = EAGER
    # Session tracking: 0 disables expiry for this member (legacy callers
    # that never heartbeat keep their membership forever, as before).
    session_timeout_ms: float = 0.0
    last_heartbeat_ms: float = -1.0
    # Optional probe standing in for the client's background heartbeat
    # thread: when the session deadline passes, the coordinator asks the
    # probe whether the process is still alive before evicting. This keeps
    # discrete-event time jumps (which can skip many heartbeat intervals at
    # once) from expiring perfectly healthy members.
    liveness: Optional[object] = field(default=None, repr=False, compare=False)
    session_timer: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass
class GroupState:
    group_id: str
    generation: int = 0
    members: Dict[str, GroupMember] = field(default_factory=dict)
    # Negotiated protocol of the last rebalance (EAGER or COOPERATIVE).
    protocol: str = EAGER
    # Cooperative handover bookkeeping: partitions withheld from their new
    # owner because the previous owner has not yet confirmed (via
    # rebalance_ack) that it committed and closed them. tp -> old owner.
    unreleased: Dict[TopicPartition, str] = field(default_factory=dict)


class GroupCoordinator:
    """Cluster-side group membership plus offset commit/fetch."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._groups: Dict[str, GroupState] = {}
        self._member_seq = 0
        # group_id -> custom assignor fn(members, partitions) -> {member: [tp]}
        # (Kafka computes the assignment client-side with a pluggable
        # assignor; Kafka Streams installs a task-aware sticky one.)
        self._assignors: Dict[str, object] = {}
        # (group_id, member_id) -> revocation-barrier callback.
        self._rebalance_listeners: Dict[Tuple[str, str], object] = {}
        # Members whose session timer found them expired *and* dead. The
        # eviction (and its rebalance) is deferred to the next safe point —
        # a heartbeat/join/leave or an explicit expire_sessions() — because
        # session timers can fire mid-advance, inside another member's
        # processing step, where a reentrant rebalance could commit that
        # member's transaction out from under it.
        self._pending_evictions: List[Tuple[str, str]] = []
        # Groups with a rebalance requested out-of-band — cooperative
        # follow-ups (granting partitions freed by a rebalance_ack) and
        # probing rebalances from the streams assignor's warmup timer.
        # Applied at the same safe points as evictions, for the same
        # reentrancy reason.
        self._pending_rebalances: Set[str] = set()

    def set_rebalance_listener(
        self, group_id: str, member_id: str, listener
    ) -> None:
        """Register a zero-arg callback run for every group member *before*
        each rebalance reassigns partitions.

        This models the revocation barrier of Kafka's eager rebalance
        protocol: current owners finish (commit) their in-flight work
        before anyone else can take their partitions — without it, a new
        owner could read committed offsets that are about to be advanced
        by the old owner's revocation commit and duplicate its work.
        """
        self._rebalance_listeners[(group_id, member_id)] = listener

    def set_assignor(self, group_id: str, assignor) -> None:
        """Install a custom partition assignor for ``group_id``.

        ``assignor(members, partitions)`` receives the member map
        (member_id -> GroupMember, whose ``assignment`` holds the previous
        assignment for stickiness) and the full sorted partition list, and
        must return {member_id: [TopicPartition, ...]} covering it.
        """
        self._assignors[group_id] = assignor

    # -- membership -------------------------------------------------------------

    def join_group(
        self,
        group_id: str,
        subscription: Tuple[str, ...],
        member_id: Optional[str] = None,
        session_timeout_ms: float = 0.0,
        liveness=None,
        protocol: str = EAGER,
    ) -> Tuple[str, int]:
        """Add (or re-add) a member; rebalances eagerly.

        ``session_timeout_ms > 0`` arms a self-rescheduling session timer:
        if the member neither heartbeats nor passes its ``liveness`` probe
        for a full timeout window, it is evicted and the group rebalances.
        Returns (member_id, generation).
        """
        self._apply_pending_evictions()
        group = self._groups.setdefault(group_id, GroupState(group_id))
        if member_id is None:
            self._member_seq += 1
            member_id = f"{group_id}-member-{self._member_seq}"
        existing = group.members.get(member_id)
        if existing is not None and existing.subscription == tuple(subscription):
            # Re-sync: the member is already part of the group with the
            # same subscription — hand it the current generation instead of
            # forcing yet another rebalance (models SyncGroup).
            existing.last_heartbeat_ms = self._cluster.clock.now
            existing.protocol = protocol
            if session_timeout_ms != existing.session_timeout_ms or liveness:
                existing.session_timeout_ms = session_timeout_ms
                existing.liveness = liveness or existing.liveness
                self._arm_session_timer(group, existing)
            return member_id, group.generation
        member = GroupMember(
            member_id,
            tuple(subscription),
            session_timeout_ms=session_timeout_ms,
            last_heartbeat_ms=self._cluster.clock.now,
            liveness=liveness,
            protocol=protocol,
        )
        group.members[member_id] = member
        tracer = self._cluster.tracer
        if tracer.enabled:
            tracer.event(
                "group.join", "group-coordinator", group_id,
                category="group", member=member_id,
            )
        self._arm_session_timer(group, member)
        self._rebalance(group)
        return member_id, group.generation

    def leave_group(self, group_id: str, member_id: str) -> None:
        self._apply_pending_evictions()
        group = self._groups.get(group_id)
        if group is None or member_id not in group.members:
            return
        self._remove_member(group, member_id)
        if group.members:
            self._rebalance(group)
        else:
            group.generation += 1

    def heartbeat(self, group_id: str, member_id: str) -> bool:
        """Record liveness for a member; returns False if it is no longer
        in the group (the client should rejoin). Also a safe point at which
        deferred session evictions are applied."""
        self._apply_pending_evictions()
        group = self._groups.get(group_id)
        if group is None or member_id not in group.members:
            return False
        group.members[member_id].last_heartbeat_ms = self._cluster.clock.now
        return True

    def assignment(self, group_id: str, member_id: str, generation: int) -> List[TopicPartition]:
        group = self._require_member(group_id, member_id)
        if generation != group.generation:
            raise IllegalGenerationError(
                f"group {group_id}: generation {generation} != {group.generation}"
            )
        return list(group.members[member_id].assignment)

    def generation(self, group_id: str) -> int:
        group = self._groups.get(group_id)
        return 0 if group is None else group.generation

    def is_member(self, group_id: str, member_id: str) -> bool:
        group = self._groups.get(group_id)
        return group is not None and member_id in group.members

    def members(self, group_id: str) -> List[str]:
        group = self._groups.get(group_id)
        return [] if group is None else sorted(group.members)

    def _require_member(self, group_id: str, member_id: str) -> GroupState:
        group = self._groups.get(group_id)
        if group is None or member_id not in group.members:
            raise UnknownMemberError(f"{member_id} not in group {group_id}")
        return group

    # -- session expiry ---------------------------------------------------------------

    def expire_sessions(self) -> List[str]:
        """Apply deferred session evictions now; returns evicted member ids.

        Session timers queue expired members as they fire; this (like any
        heartbeat/join/leave) is the safe point where the evictions and the
        resulting rebalances actually happen.
        """
        return self._apply_pending_evictions()

    def _arm_session_timer(self, group: GroupState, member: GroupMember) -> None:
        """Self-rescheduling session deadline for one member.

        Housekeeping (non-wake) timer: expiry happens when simulated time
        passes the deadline for other reasons; an idle driver does not
        fast-forward a finished run just to expire sessions.
        """
        if member.session_timer is not None:
            member.session_timer.cancel()
            member.session_timer = None
        if member.session_timeout_ms <= 0:
            return
        clock = self._cluster.clock
        deadline = member.last_heartbeat_ms + member.session_timeout_ms
        member.session_timer = clock.schedule(
            max(0.0, deadline - clock.now),
            lambda g=group, m=member: self._on_session_timer(g, m),
            wake=False,
        )

    def _on_session_timer(self, group: GroupState, member: GroupMember) -> None:
        member.session_timer = None
        if group.members.get(member.member_id) is not member:
            return  # left or was replaced since the timer was armed
        now = self._cluster.clock.now
        deadline = member.last_heartbeat_ms + member.session_timeout_ms
        if now < deadline:
            self._arm_session_timer(group, member)  # heartbeat moved it
            return
        probe = member.liveness
        if probe is not None and probe():
            # The process is alive — its background heartbeat thread would
            # have kept the session fresh in real time; the discrete-event
            # clock simply jumped several heartbeat intervals at once.
            member.last_heartbeat_ms = now
            self._arm_session_timer(group, member)
            return
        self._pending_evictions.append((group.group_id, member.member_id))

    def _apply_pending_evictions(self) -> List[str]:
        if not self._pending_evictions:
            self._apply_pending_rebalances()
            return []
        pending, self._pending_evictions = self._pending_evictions, []
        evicted: List[str] = []
        affected: Dict[str, GroupState] = {}
        for group_id, member_id in pending:
            group = self._groups.get(group_id)
            member = None if group is None else group.members.get(member_id)
            if member is None:
                continue
            # Re-check at the safe point: the member may have heartbeated
            # or come back to life between timer fire and application.
            expired = (
                self._cluster.clock.now
                >= member.last_heartbeat_ms + member.session_timeout_ms
            )
            alive = member.liveness is not None and member.liveness()
            if not expired or alive:
                member.last_heartbeat_ms = self._cluster.clock.now
                self._arm_session_timer(group, member)
                continue
            self._remove_member(group, member_id)
            evicted.append(member_id)
            affected[group_id] = group
            tracer = self._cluster.tracer
            if tracer.enabled:
                tracer.event(
                    "group.session_expired", "group-coordinator", group_id,
                    category="group", member=member_id,
                )
            self._cluster.recovery.note_detection(
                "session_expired", group=group_id, member=member_id
            )
        for group in affected.values():
            if group.members:
                self._rebalance(group)
            else:
                group.generation += 1
        self._apply_pending_rebalances(just_rebalanced=set(affected))
        return evicted

    def _remove_member(self, group: GroupState, member_id: str) -> None:
        member = group.members.pop(member_id)
        if member.session_timer is not None:
            member.session_timer.cancel()
            member.session_timer = None
        self._rebalance_listeners.pop((group.group_id, member_id), None)
        # A departed member can no longer confirm its revocations. Graceful
        # leavers committed before leave_group; a crashed member's dangling
        # transaction will be aborted, so the last *committed* offsets are
        # the correct handover point either way — release its claims.
        for tp in [t for t, m in group.unreleased.items() if m == member_id]:
            del group.unreleased[tp]

    # -- out-of-band rebalance requests -------------------------------------------

    def request_rebalance(self, group_id: str) -> None:
        """Ask for a rebalance at the next safe point (heartbeat/join/leave
        or expire_sessions). Used by cooperative follow-ups and by the
        streams assignor's probing-rebalance timer (KIP-441): probing
        wake timers fire between actor polls, where a synchronous rebalance
        could reach into a member mid-step."""
        self._pending_rebalances.add(group_id)
        # Wake timer (empty callback): the request is applied at the next
        # heartbeat, so make sure an otherwise-idle driver performs one
        # more poll round instead of concluding with the rebalance pending.
        self._cluster.clock.schedule(0.0, lambda: None)

    def rebalance_ack(self, group_id: str, member_id: str) -> None:
        """Cooperative revocation confirmation: ``member_id`` has committed
        and closed every partition the last rebalance took away from it.
        Once a member's claims are all released, a follow-up rebalance is
        requested so the freed partitions reach their new owners."""
        group = self._groups.get(group_id)
        if group is None:
            return
        released = [t for t, m in group.unreleased.items() if m == member_id]
        for tp in released:
            del group.unreleased[tp]
        if released and group.members:
            self.request_rebalance(group_id)

    def _apply_pending_rebalances(self, just_rebalanced: Set[str] = frozenset()) -> None:
        if not self._pending_rebalances:
            return
        pending, self._pending_rebalances = self._pending_rebalances, set()
        for group_id in sorted(pending):
            if group_id in just_rebalanced:
                continue
            group = self._groups.get(group_id)
            if group is not None and group.members:
                self._rebalance(group)

    # -- introspection (invariants / tests) ----------------------------------------

    def group_protocol(self, group_id: str) -> str:
        group = self._groups.get(group_id)
        return EAGER if group is None else group.protocol

    def assignment_snapshot(self, group_id: str) -> Dict[str, List[TopicPartition]]:
        """Current owner map, regardless of generation (for observers)."""
        group = self._groups.get(group_id)
        if group is None:
            return {}
        return {m: list(member.assignment) for m, member in group.members.items()}

    def unreleased_partitions(self, group_id: str) -> Dict[TopicPartition, str]:
        """Partitions mid-handover: withheld until the old owner acks."""
        group = self._groups.get(group_id)
        return {} if group is None else dict(group.unreleased)

    def rebalance_pending(self, group_id: str) -> bool:
        """True while an out-of-band rebalance request awaits its safe
        point (observers must expect transiently unowned partitions)."""
        return group_id in self._pending_rebalances

    def offsets_stable(self, group_id: str) -> bool:
        """True when the group's ``__consumer_offsets`` partition has no
        open transaction (Kafka's UNSTABLE_OFFSET_COMMIT condition). While
        a commit's markers are still in flight, a read_committed offset
        fetch would return the *previous* committed offsets; adopting a
        partition on those would replay work its old owner already
        committed."""
        tp = self.offsets_partition(group_id)
        log = self._cluster.partition_state(tp).leader_log()
        return not log.open_transactions()

    # -- rebalancing ----------------------------------------------------------------

    def _rebalance(self, group: GroupState) -> None:
        """Bump the generation and reassign partitions.

        The negotiated protocol decides how: EAGER runs every member's
        revocation-barrier listener (committing in-flight work) and then
        moves everything in one step; COOPERATIVE hands each member only
        the partitions no other member might still hold, withholding moved
        partitions until their previous owner acks the revocation in a
        follow-up generation (KIP-429).
        """
        tracer = self._cluster.tracer
        if tracer.enabled:
            # The span covers the revocation barrier (whose commits charge
            # latency) through reassignment; generation is stamped at close.
            with tracer.begin(
                "group.rebalance", "group-coordinator", group.group_id,
                category="group", members=len(group.members),
            ) as span:
                self._do_rebalance(group)
                span.add(
                    generation=group.generation,
                    protocol=group.protocol,
                    deferred=len(group.unreleased),
                )
            self._note_realigned(group)
            return
        self._do_rebalance(group)
        self._note_realigned(group)

    def _note_realigned(self, group: GroupState) -> None:
        self._cluster.recovery.note_realign(
            "rebalance",
            group=group.group_id,
            generation=group.generation,
            protocol=group.protocol,
        )

    def _do_rebalance(self, group: GroupState) -> None:
        group.protocol = (
            COOPERATIVE
            if group.members
            and all(m.protocol == COOPERATIVE for m in group.members.values())
            else EAGER
        )
        self._cluster.metrics.counter(
            "rebalance_count", group=group.group_id, protocol=group.protocol
        ).increment()
        if group.protocol == EAGER:
            # Revocation barrier: current owners finish (commit) in-flight
            # work before any partition changes hands.
            for member_id in sorted(group.members):
                listener = self._rebalance_listeners.get((group.group_id, member_id))
                if listener is not None:
                    listener()
            group.unreleased.clear()
        group.generation += 1
        target = self._target_assignment(group)
        if group.protocol == EAGER:
            for member_id, member in group.members.items():
                member.assignment = list(target.get(member_id, []))
            return

        # Cooperative: a member may still hold uncommitted work for every
        # partition in its current assignment, plus any earlier revocation
        # it has not acked yet. Withhold those from their new owners.
        holder: Dict[TopicPartition, str] = {}
        for member in group.members.values():
            for tp in member.assignment:
                holder[tp] = member.member_id
        for tp, member_id in group.unreleased.items():
            if member_id in group.members:
                holder.setdefault(tp, member_id)

        granted: Dict[str, Set[TopicPartition]] = {m: set() for m in group.members}
        for member_id in group.members:
            for tp in target.get(member_id, []):
                if holder.get(tp) in (None, member_id):
                    granted[member_id].add(tp)
        group.unreleased = {
            tp: member_id
            for tp, member_id in holder.items()
            if tp not in granted[member_id]
        }
        for member_id, member in group.members.items():
            member.assignment = sorted(granted[member_id])

    def _target_assignment(self, group: GroupState) -> Dict[str, List[TopicPartition]]:
        """The assignment the group is converging to (custom assignor, or
        sticky round-robin over the subscribed partitions)."""
        partitions: List[TopicPartition] = []
        topics: Set[str] = set()
        for member in group.members.values():
            topics.update(member.subscription)
        for topic in sorted(topics):
            meta = self._cluster.topic_metadata(topic)
            partitions.extend(
                TopicPartition(topic, p) for p in range(meta.num_partitions)
            )

        custom = self._assignors.get(group.group_id)
        if custom is not None:
            new = custom(group.members, partitions)
            return {m: list(new.get(m, [])) for m in group.members}

        previous_owner: Dict[TopicPartition, str] = {}
        for member in group.members.values():
            for tp in member.assignment:
                previous_owner[tp] = member.member_id

        member_ids = sorted(group.members)
        quota = -(-len(partitions) // len(member_ids)) if member_ids else 0
        new_assignment: Dict[str, List[TopicPartition]] = {m: [] for m in member_ids}

        unplaced: List[TopicPartition] = []
        for tp in partitions:
            owner = previous_owner.get(tp)
            if (
                owner in new_assignment
                and len(new_assignment[owner]) < quota
                and tp.topic in group.members[owner].subscription
            ):
                new_assignment[owner].append(tp)
            else:
                unplaced.append(tp)
        for tp in unplaced:
            eligible = [
                m for m in member_ids if tp.topic in group.members[m].subscription
            ]
            if not eligible:
                continue
            target = min(eligible, key=lambda m: len(new_assignment[m]))
            new_assignment[target].append(tp)
        return new_assignment

    # -- offsets ------------------------------------------------------------------

    def offsets_partition(self, group_id: str) -> TopicPartition:
        """Which ``__consumer_offsets`` partition stores this group."""
        meta = self._cluster.topic_metadata(CONSUMER_OFFSETS_TOPIC)
        index = stable_hash(group_id) % meta.num_partitions
        return TopicPartition(CONSUMER_OFFSETS_TOPIC, index)

    def commit_offsets(
        self,
        group_id: str,
        offsets: Dict[TopicPartition, int],
        member_id: Optional[str] = None,
        generation: Optional[int] = None,
        producer_id: int = NO_PRODUCER_ID,
        producer_epoch: int = -1,
        transactional: bool = False,
    ) -> None:
        """Append offset-commit records to the offsets topic.

        With ``transactional=True`` the records are part of the producer's
        open transaction and only become effective on commit.
        """
        if member_id is not None:
            group = self._require_member(group_id, member_id)
            if generation is not None and generation != group.generation:
                raise IllegalGenerationError(
                    f"group {group_id}: commit with stale generation "
                    f"{generation} (current {group.generation})"
                )
            if generation is not None:
                self._check_ownership(group, member_id, offsets)
        tp = self.offsets_partition(group_id)
        ordered = sorted(offsets.items())
        count = len(ordered)
        batch = ColumnarSlab(
            [(group_id, target.topic, target.partition) for target, _ in ordered],
            [offset for _, offset in ordered],
            [self._cluster.clock.now] * count,
            [NO_HEADERS] * count,
            producer_id=producer_id,
            producer_epoch=producer_epoch,
            is_transactional=transactional,
        )
        self._cluster.partition_state(tp).append(batch, acks="all")

    def _check_ownership(
        self,
        group: GroupState,
        member_id: str,
        offsets: Dict[TopicPartition, int],
    ) -> None:
        """Reject commits for partitions owned by *another* member.

        The generation check alone cannot fence a zombie window: the real
        protocol only completes a rebalance once every member has rejoined
        (having committed revoked work first), but this coordinator
        completes rebalances instantly and runs revocation barriers on the
        members' behalf. A member that kept processing already-fetched
        records for a partition it lost would pass the generation check
        after its next (generation-refreshing) rejoin and commit work the
        partition's new owner is about to redo — duplicated output under
        exactly-once. Ownership is checked against the current assignment;
        a cooperative handover still in flight (``unreleased``) keeps the
        old owner commit-eligible until it acks.
        """
        owned = set(group.members[member_id].assignment)
        foreign = sorted(
            str(tp)
            for tp in offsets
            if tp not in owned and group.unreleased.get(tp) != member_id
        )
        if foreign:
            raise CommitFailedError(
                f"group {group.group_id}: member {member_id} committed "
                f"offsets for partitions it does not own in generation "
                f"{group.generation}: {foreign}"
            )

    def fetch_committed(
        self, group_id: str, partitions: List[TopicPartition]
    ) -> Dict[TopicPartition, Optional[int]]:
        """Latest *committed* offset per partition (None if never committed).

        Reads the offsets-topic partition with read_committed isolation, so
        offsets written inside open or aborted transactions do not count —
        this is what rolls a failed task's position back to its last
        committed transaction (Section 4.2.3).
        """
        tp = self.offsets_partition(group_id)
        log = self._cluster.partition_state(tp).leader_log()
        result = fetch(
            log, log.log_start_offset, max_records=2**31,
            isolation_level=READ_COMMITTED,
        )
        latest: Dict[TopicPartition, Optional[int]] = {p: None for p in partitions}
        wanted = set(partitions)
        _, _, keys, values, _ = result.columns()
        for (group, topic, partition), offset in zip(keys, values):
            target = TopicPartition(topic, partition)
            if group == group_id and target in wanted:
                latest[target] = offset
        return latest

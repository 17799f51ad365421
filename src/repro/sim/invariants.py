"""Continuous invariant checking for chaos runs.

Each :class:`Invariant` is a pure observer: it reads broker/log state
directly (no network calls, no clock advancement) so evaluating it never
perturbs the simulation it is judging. The :class:`InvariantSuite` bundles
checkers and is evaluated by the chaos controller at safe points between
actor cycles and once more at teardown.

The invariants encode the paper's core claims:

* acknowledged data survives failures — replicas agree below the high
  watermark, and the high watermark never moves backwards
  (:class:`HighWatermarkMonotonic`, :class:`ReplicaConsistency`);
* read-committed consumers never observe aborted or still-open
  transactional data (:class:`ReadCommittedIsolation`, Section 4.2.3);
* a state store is exactly the materialized view of its changelog
  (:class:`ChangelogStateEquivalence`, Section 4);
* the committed output of a faulty run equals the output of a fault-free
  run — exactly-once end to end (:class:`CommittedOutputEquality`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.config import READ_COMMITTED
from repro.errors import StateStoreError
from repro.log.record import Record


class InvariantViolation(AssertionError):
    """A safety property the paper guarantees was observed broken."""


class Invariant:
    """Base class: a named, repeatedly evaluable safety property."""

    name = "invariant"
    # Some properties only hold at quiescence (e.g. output equality while
    # transactions are still open mid-run); those set final_only.
    final_only = False

    def check(self, cluster, final: bool = False) -> None:
        raise NotImplementedError

    def _fail(self, message: str) -> None:
        raise InvariantViolation(f"[{self.name}] {message}")


class HighWatermarkMonotonic(Invariant):
    """Per-partition high watermarks never regress.

    The high watermark only advances once every in-sync replica holds the
    data, so a regression would mean acknowledged records were lost — the
    exact failure mode acks=all + min.insync.replicas exists to prevent.
    """

    name = "hw-monotonic"

    def __init__(self) -> None:
        self._last_hw: Dict[TopicPartition, int] = {}

    def check(self, cluster, final: bool = False) -> None:
        for tp, state in cluster.partition_states().items():
            if state.leader is None:
                continue
            hw = state.leader_log().high_watermark
            last = self._last_hw.get(tp)
            if last is not None and hw < last:
                self._fail(
                    f"{tp}: high watermark regressed {last} -> {hw}"
                )
            self._last_hw[tp] = hw


class ReplicaConsistency(Invariant):
    """ISR membership and replica agreement.

    * The ISR only contains live brokers, and the leader (when one exists)
      is an ISR member — leadership never falls to a replica that might be
      missing acknowledged records (clean election only).
    * Every in-sync replica stores byte-identical records below the high
      watermark: the acknowledged prefix is the same log everywhere.
    """

    name = "replica-consistency"

    def check(self, cluster, final: bool = False) -> None:
        alive = set(cluster.alive_brokers())
        for tp, state in cluster.partition_states().items():
            dead_in_isr = state.isr - alive
            if dead_in_isr:
                self._fail(f"{tp}: dead brokers {sorted(dead_in_isr)} in ISR")
            if state.leader is None:
                continue
            if state.leader not in state.isr:
                self._fail(f"{tp}: leader {state.leader} not in ISR {sorted(state.isr)}")
            leader_log = state.leader_log()
            hw = leader_log.high_watermark
            for broker_id in state.isr:
                if broker_id == state.leader:
                    continue
                follower = state.replica_log(broker_id)
                if follower.log_end_offset < hw:
                    self._fail(
                        f"{tp}: in-sync replica {broker_id} ends at "
                        f"{follower.log_end_offset}, below HW {hw}"
                    )
                start = max(
                    leader_log.log_start_offset, follower.log_start_offset
                )
                leader_records = leader_log.read(start, up_to_offset=hw)
                follower_records = follower.read(start, up_to_offset=hw)
                if len(leader_records) != len(follower_records):
                    self._fail(
                        f"{tp}: replica {broker_id} holds "
                        f"{len(follower_records)} records below HW, leader "
                        f"holds {len(leader_records)}"
                    )
                for lr, fr in zip(leader_records, follower_records):
                    if (
                        lr.offset != fr.offset
                        or lr.key != fr.key
                        or lr.value != fr.value
                        or lr.producer_id != fr.producer_id
                        or lr.sequence != fr.sequence
                    ):
                        self._fail(
                            f"{tp}: replica {broker_id} diverges from the "
                            f"leader at offset {lr.offset} (below HW {hw})"
                        )


class ReadCommittedIsolation(Invariant):
    """No aborted or open-transaction data behind a read-committed fetch.

    Re-fetches every user partition with ``read_committed`` and verifies
    each returned record independently against the log's transactional
    bookkeeping. Catches regressions in LSO gating and aborted-range
    filtering — deliberately breaking the filter makes this checker raise
    (see the regression tests).
    """

    name = "read-committed-isolation"

    def check(self, cluster, final: bool = False) -> None:
        for topic in cluster.user_topics():
            for tp in cluster.partitions_for(topic):
                state = cluster.partition_state(tp)
                if state.leader is None:
                    continue
                log = state.leader_log()
                result = fetch(
                    log,
                    log.log_start_offset,
                    max_records=2**31,
                    isolation_level=READ_COMMITTED,
                )
                try:
                    self.verify_records(log, result.records)
                except InvariantViolation as exc:
                    self._fail(f"{tp}: {exc}")

    @staticmethod
    def verify_records(log, records: List[Record]) -> None:
        """Assert ``records`` (as delivered to a read-committed consumer
        of ``log``) contain no marker, aborted, or open-transaction data.

        Static so regression tests can feed it records fetched with the
        isolation filter deliberately disabled and watch it raise.
        """
        lso = log.last_stable_offset
        open_txns = log.open_transactions()
        for record in records:
            if record.is_control:
                raise InvariantViolation(
                    f"control marker at offset {record.offset} delivered"
                )
            if log.is_offset_aborted(record.producer_id, record.offset):
                raise InvariantViolation(
                    f"aborted record at offset {record.offset} "
                    f"(producer {record.producer_id}) delivered"
                )
            if record.is_transactional:
                first_open = open_txns.get(record.producer_id)
                if (
                    first_open is not None and record.offset >= first_open
                ) or record.offset >= lso:
                    raise InvariantViolation(
                        f"open-transaction record at offset {record.offset} "
                        f"(producer {record.producer_id}, LSO {lso}) delivered"
                    )


class ChangelogStateEquivalence(Invariant):
    """A restored store equals an independent replay of its changelog.

    Attached to an app via :meth:`attach`, the checker observes every
    changelog restore (task creation and migration) and immediately
    rebuilds the same store from the changelog itself, comparing contents.
    At teardown — once every transaction has committed — it re-verifies
    every live key-value store against its changelog.
    """

    name = "changelog-state-equivalence"

    def __init__(self) -> None:
        self._apps: List[Any] = []
        self.restores_verified = 0

    def attach(self, app) -> "ChangelogStateEquivalence":
        def listener(
            task_id, store_name, store, changelog, partition, next_offset,
            from_offset=0,
        ):
            self._on_restore(
                app.cluster, task_id, store_name, store, changelog, partition
            )

        app.restore_listener = listener
        self._apps.append(app)
        return self

    def _on_restore(
        self, cluster, task_id, store_name, store, changelog_topic, partition
    ) -> None:
        if not hasattr(store, "all"):    # window stores: no flat view
            return
        expected = self._replay(cluster, changelog_topic, partition)
        actual = dict(store.all())
        if expected != actual:
            self._fail(
                f"task {task_id} store {store_name!r}: restored contents "
                f"differ from changelog replay of {changelog_topic}-{partition} "
                f"({len(actual)} keys restored vs {len(expected)} replayed)"
            )
        self.restores_verified += 1

    @staticmethod
    def _replay(cluster, changelog_topic: str, partition: int) -> Dict[Any, Any]:
        """Independent read-committed replay: latest value per key, with
        ``None`` as a tombstone."""
        tp = TopicPartition(changelog_topic, partition)
        log = cluster.partition_state(tp).leader_log()
        result = fetch(
            log,
            log.log_start_offset,
            max_records=2**31,
            isolation_level=READ_COMMITTED,
        )
        view: Dict[Any, Any] = {}
        _, _, keys, values, _ = result.columns()
        for key, value in zip(keys, values):
            if value is None:
                view.pop(key, None)
            else:
                view[key] = value
        return view

    def check(self, cluster, final: bool = False) -> None:
        # Mid-run, stores legitimately run ahead of their changelogs (the
        # hook's appends sit in an open transaction or producer buffer), so
        # equality only holds at quiescence.
        if not final:
            return
        for app in self._apps:
            for instance in app.instances:
                if not instance.alive:
                    continue
                for task in instance.tasks.values():
                    for spec in task.sub.stores:
                        if not spec.changelog:
                            continue
                        # Read through the queryable-state facade: the same
                        # surface interactive queries use, so the invariant
                        # also exercises the read path.
                        try:
                            view = task.queryable_store(spec.name)
                            actual = dict(view.all())
                        except StateStoreError:
                            continue  # store kind without a scan surface
                        expected = self._replay(
                            app.cluster,
                            spec.changelog_topic(app.config.application_id),
                            task.task_id.partition,
                        )
                        if expected != actual:
                            self._fail(
                                f"task {task.task_id} store {spec.name!r}: "
                                f"final contents differ from changelog "
                                f"replay ({len(actual)} keys vs "
                                f"{len(expected)} replayed)"
                            )


class RebalanceContinuity(Invariant):
    """Processing continuity through (incremental) rebalances.

    The cooperative protocol's availability claim, as safety properties on
    the coordinator's ownership bookkeeping:

    * no source partition is ever assigned to two group members at once —
      the whole point of withholding moved partitions until the old owner
      acks (KIP-429);
    * a partition absent from *every* member's assignment is exactly one
      mid-handover (tracked in the group's unreleased map) — rebalancing
      never silently drops a partition, so records keep flowing through
      every task that is not itself being moved;
    * no handover gets stuck: an unreleased claim clears within
      ``max_handover_ms`` of virtual time (the old owner polls, commits
      and acks; a crashed owner's claims are released on eviction), and
      none survive to quiescence.
    """

    name = "rebalance-continuity"

    def __init__(self, max_handover_ms: float = 2_000.0) -> None:
        self.max_handover_ms = max_handover_ms
        self._apps: List[Any] = []
        # (group, tp, old owner) -> virtual time the claim was first seen.
        self._first_seen: Dict[Tuple[str, TopicPartition, str], float] = {}

    def attach(self, app) -> "RebalanceContinuity":
        self._apps.append(app)
        return self

    def check(self, cluster, final: bool = False) -> None:
        coordinator = cluster.group_coordinator
        now = cluster.clock.now
        live_claims = set()
        for app in self._apps:
            group = app.config.application_id
            snapshot = coordinator.assignment_snapshot(group)
            owners: Dict[TopicPartition, str] = {}
            for member_id, tps in snapshot.items():
                for tp in tps:
                    if tp in owners:
                        self._fail(
                            f"{group}: {tp} assigned to both "
                            f"{owners[tp]} and {member_id}"
                        )
                    owners[tp] = member_id
            unreleased = coordinator.unreleased_partitions(group)
            if snapshot and not coordinator.rebalance_pending(group):
                for topic in sorted(app.all_source_topics):
                    for tp in cluster.partitions_for(topic):
                        if tp not in owners and tp not in unreleased:
                            self._fail(
                                f"{group}: {tp} is owned by nobody and "
                                f"not mid-handover — it stopped flowing"
                            )
            for tp, member_id in unreleased.items():
                claim = (group, tp, member_id)
                live_claims.add(claim)
                first = self._first_seen.setdefault(claim, now)
                if final:
                    self._fail(
                        f"{group}: handover of {tp} from {member_id} "
                        f"never completed (pending since t={first:.0f}ms)"
                    )
                if now - first > self.max_handover_ms:
                    self._fail(
                        f"{group}: handover of {tp} from {member_id} stuck "
                        f"for {now - first:.0f}ms"
                    )
        self._first_seen = {
            claim: first
            for claim, first in self._first_seen.items()
            if claim in live_claims
        }


class CommittedOutputEquality(Invariant):
    """Committed output under faults equals the fault-free golden output.

    The end-to-end exactly-once claim: the multiset of (partition, key,
    value) records visible to a read-committed consumer is identical
    whether or not brokers crashed, leaders churned, and acks were lost
    mid-run — no record lost, none duplicated. Comparison is as a
    multiset, not a sequence: Kafka orders records per producer per
    partition, and fault-shifted scheduling legitimately interleaves
    *different* tasks' appends differently. Final-only — mid-run the
    faulty timeline is legitimately behind the golden one.
    """

    name = "committed-output-equality"
    final_only = True

    def __init__(self, golden: Dict[str, List[Tuple[int, Any, Any]]]) -> None:
        self.golden = golden

    def check(self, cluster, final: bool = False) -> None:
        if not final:
            return
        actual = committed_records(cluster, sorted(self.golden))
        for topic in sorted(self.golden):
            want = sorted(self.golden[topic], key=repr)
            got = sorted(actual.get(topic, []), key=repr)
            if want == got:
                continue
            extra = _multiset_diff(got, want)
            missing = _multiset_diff(want, got)
            self._fail(
                f"{topic}: committed output differs from the fault-free "
                f"run — {len(got)} records vs {len(want)} "
                f"(missing {missing[:3]}, unexpected {extra[:3]})"
            )


class FinalStateEquality(Invariant):
    """At-least-once convergence: latest committed value per (partition,
    key) equals the golden run's.

    ALOS legitimately *duplicates* effects under crashes (Figure 1's
    window between flushed outputs and the offset commit), so multiset
    equality is the wrong bar — but it must never *lose* acknowledged
    updates, and for an idempotent aggregation (e.g. a running max) the
    re-derived value per key converges to the fault-free one despite the
    replays. Final-only, like the multiset checker.
    """

    name = "final-state-equality"
    final_only = True

    def __init__(self, golden: Dict[str, List[Tuple[int, Any, Any]]]) -> None:
        self.golden = golden

    @staticmethod
    def _latest(rows: List[Tuple[int, Any, Any]]) -> Dict[Tuple[int, Any], Any]:
        """Last value per (partition, key) — rows are in offset order per
        partition, so a plain overwrite fold is the changelog collapse."""
        view: Dict[Tuple[int, Any], Any] = {}
        for partition, key, value in rows:
            view[(partition, key)] = value
        return view

    def check(self, cluster, final: bool = False) -> None:
        if not final:
            return
        actual = committed_records(cluster, sorted(self.golden))
        for topic in sorted(self.golden):
            want = self._latest(self.golden[topic])
            got = self._latest(actual.get(topic, []))
            if want == got:
                continue
            missing = sorted(
                (k for k in want if got.get(k) != want[k]), key=repr
            )
            extra = sorted((k for k in got if k not in want), key=repr)
            self._fail(
                f"{topic}: final per-key state differs from the fault-free "
                f"run — {len(missing)} keys wrong/missing "
                f"(e.g. {missing[:3]}), {len(extra)} unexpected "
                f"(e.g. {extra[:3]})"
            )


def _multiset_diff(left: List[Any], right: List[Any]) -> List[Any]:
    """Elements of ``left`` beyond their multiplicity in ``right``."""
    remaining = list(right)
    extra = []
    for item in left:
        if item in remaining:
            remaining.remove(item)
        else:
            extra.append(item)
    return extra


def committed_records(
    cluster, topics: Optional[List[str]] = None
) -> Dict[str, List[Tuple[int, Any, Any]]]:
    """Every topic's read-committed contents as (partition, key, value)
    triples in offset order — the canonical form both sides of a golden
    comparison use."""
    out: Dict[str, List[Tuple[int, Any, Any]]] = {}
    for topic in topics if topics is not None else cluster.user_topics():
        rows: List[Tuple[int, Any, Any]] = []
        for tp in cluster.partitions_for(topic):
            state = cluster.partition_state(tp)
            if state.leader is None:
                continue
            log = state.leader_log()
            result = fetch(
                log,
                log.log_start_offset,
                max_records=2**31,
                isolation_level=READ_COMMITTED,
            )
            _, _, keys, values, _ = result.columns()
            rows.extend(zip(repeat(tp.partition), keys, values))
        out[topic] = rows
    return out


class InvariantSuite:
    """A bundle of invariants evaluated together at safe points."""

    def __init__(self, invariants: Optional[List[Invariant]] = None) -> None:
        self.invariants: List[Invariant] = (
            list(invariants)
            if invariants is not None
            else [
                HighWatermarkMonotonic(),
                ReplicaConsistency(),
                ReadCommittedIsolation(),
            ]
        )
        self.checks_performed = 0

    def add(self, invariant: Invariant) -> "InvariantSuite":
        self.invariants.append(invariant)
        return self

    def check_all(self, cluster, final: bool = False) -> None:
        for invariant in self.invariants:
            if invariant.final_only and not final:
                continue
            invariant.check(cluster, final=final)
        self.checks_performed += 1

"""The streams partition assignor: task-aware, sticky, balanced, lag-aware.

Kafka Streams installs its own assignor in the consumer-group protocol so
that all source partitions of one task land on the same member, tasks are
spread evenly, and reassignments prefer previous owners to minimise state
migration (task stickiness, Section 3.3).

With the cooperative rebalance protocol the assignor is additionally
*lag-aware* (KIP-441): a stateful task only moves to an instance whose
changelog lag — end offset minus the instance's standby position — is
within ``acceptable_recovery_lag``. A laggier destination first receives a
**warmup** standby, and a timer-driven **probing rebalance** completes the
migration once the warmup has caught up, so availability never waits on a
cold store rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.broker.partition import TopicPartition
from repro.config import COOPERATIVE, READ_COMMITTED
from repro.streams.runtime.task import TaskId

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.app import KafkaStreams


class StreamsAssignor:
    """Callable assignor registered with the group coordinator."""

    def __init__(self, task_partitions: Dict[TaskId, List[TopicPartition]]) -> None:
        # TaskId -> every source partition the task consumes.
        self._task_partitions = {
            task: sorted(tps) for task, tps in task_partitions.items()
        }
        self._partition_task: Dict[TopicPartition, TaskId] = {}
        for task, tps in self._task_partitions.items():
            for tp in tps:
                self._partition_task[tp] = task
        # Bound by KafkaStreams after construction; None leaves the
        # assignor purely sticky/balanced (no lag awareness, no warmups).
        self._app: Optional["KafkaStreams"] = None
        # Destination remembered for tasks mid-handover: between the
        # revocation and the follow-up grant a task has no owner, and the
        # recomputation must not flip-flop its destination.
        self._intended: Dict[TaskId, str] = {}
        # member_id -> warmup standby tasks it should build before the
        # probing rebalance migrates them over.
        self._warmups: Dict[str, Set[TaskId]] = {}
        self._probing_timer = None
        self.probing_rebalances = 0

    def bind(self, app: "KafkaStreams") -> None:
        self._app = app

    def task_for(self, tp: TopicPartition) -> TaskId:
        return self._partition_task[tp]

    def warmup_tasks_for(self, member_id: Optional[str]) -> Set[TaskId]:
        if member_id is None:
            return set()
        return set(self._warmups.get(member_id, ()))

    def intended_member(self, task: TaskId) -> Optional[str]:
        """The member this task is headed to per the last assignment —
        including tasks mid-handover that currently have no owner. The
        metadata service uses this as the fresh routing hint for queries
        that land on a migrating task."""
        return self._intended.get(task)

    def has_warmups(self) -> bool:
        return any(self._warmups.values())

    # -- lag bookkeeping ---------------------------------------------------------------

    def _is_stateful(self, task: TaskId) -> bool:
        if self._app is None:
            return False
        sub = self._app.sub_topology(task.sub_id)
        return any(spec.changelog for spec in sub.stores)

    def _changelog_end(self, task: TaskId) -> int:
        app = self._app
        total = 0
        for spec in app.sub_topology(task.sub_id).stores:
            if not spec.changelog:
                continue
            tp = TopicPartition(
                spec.changelog_topic(app.config.application_id), task.partition
            )
            total += app.cluster.end_offset(tp, READ_COMMITTED)
        return total

    def _lag(self, member_id: str, task: TaskId, end: int) -> float:
        """Changelog records ``member_id`` would have to replay before the
        task could process there: 0 for the active owner or a caught-up
        standby. A member with no visible instance (a joiner mid-subscribe
        reports no standby positions yet) counts as fully empty — its lag
        is the whole changelog."""
        app = self._app
        instance = None
        for candidate in app.instances:
            if candidate.alive and candidate.consumer.member_id == member_id:
                instance = candidate
                break
        if instance is None:
            return float(end)
        if task in instance.tasks:
            return 0.0
        standby = instance.standby_tasks.get(task)
        position = sum(standby.positions.values()) if standby is not None else 0
        return max(0.0, float(end - position))

    def _cooperative(self) -> bool:
        return (
            self._app is not None
            and self._app.config.rebalance_protocol == COOPERATIVE
        )

    # -- assignment --------------------------------------------------------------------

    def __call__(self, members, partitions) -> Dict[str, List[TopicPartition]]:
        if self._app is not None:
            # ``_warmups`` is rewritten below: every instance re-derives
            # its standby set on its next step.
            self._app.placement_epoch += 1
        member_ids = sorted(members)
        if not member_ids:
            self._warmups = {}
            return {}

        tasks = sorted(self._task_partitions)
        quota = -(-len(tasks) // len(member_ids))
        cooperative = self._cooperative()

        # Previous owners, for stickiness. A task mid-handover (revoked,
        # not yet granted) sticks to its remembered destination instead.
        previous: Dict[TaskId, str] = {}
        for member_id, member in members.items():
            for tp in member.assignment:
                task = self._partition_task.get(tp)
                if task is not None:
                    previous[task] = member_id
        for task, member_id in self._intended.items():
            if member_id in members:
                previous.setdefault(task, member_id)

        lag_cache: Dict[TaskId, Dict[str, float]] = {}

        def lags_for(task: TaskId) -> Dict[str, float]:
            cached = lag_cache.get(task)
            if cached is None:
                end = self._changelog_end(task)
                cached = {m: self._lag(m, task, end) for m in member_ids}
                lag_cache[task] = cached
            return cached

        task_assignment: Dict[str, List[TaskId]] = {m: [] for m in member_ids}
        unplaced: List[TaskId] = []
        for task in tasks:
            owner = previous.get(task)
            if owner in task_assignment and len(task_assignment[owner]) < quota:
                task_assignment[owner].append(task)
            else:
                unplaced.append(task)
        for index, task in enumerate(unplaced):
            if cooperative and self._is_stateful(task):
                # Ownerless stateful task (crash, scale-in, handover):
                # prefer the most caught-up member — a standby host takes
                # over with near-zero restore (KIP-441 placement).
                lags = lags_for(task)
                target = min(
                    member_ids,
                    key=lambda m: (lags[m], len(task_assignment[m])),
                )
            else:
                low = min(len(task_assignment[m]) for m in member_ids)
                tied = [m for m in member_ids if len(task_assignment[m]) == low]
                # Round-robin over the tied members by the task's position
                # in the unplaced list: ties no longer all collapse onto
                # the lexically first member id.
                target = tied[index % len(tied)]
            task_assignment[target].append(task)

        self._balance(task_assignment, previous)

        # Lag gating (cooperative only): veto moves of stateful tasks to
        # destinations that would pay more than acceptable_recovery_lag of
        # changelog replay; keep the task warm on its previous owner and
        # build a warmup standby at the destination instead.
        warmups: Dict[str, Set[TaskId]] = {}
        if cooperative:
            acceptable = self._app.config.acceptable_recovery_lag
            for member_id in member_ids:
                for task in list(task_assignment[member_id]):
                    owner = previous.get(task)
                    if owner is None or owner == member_id:
                        continue
                    if owner not in task_assignment:
                        continue
                    if not self._is_stateful(task):
                        continue
                    if lags_for(task)[member_id] <= acceptable:
                        continue
                    task_assignment[member_id].remove(task)
                    task_assignment[owner].append(task)
                    warmups.setdefault(member_id, set()).add(task)

        self._warmups = warmups
        self._intended = {
            task: member_id
            for member_id, assigned in task_assignment.items()
            for task in assigned
        }
        self._sync_probing_timer()
        app = self._app
        if app is not None:
            app.cluster.recovery.note_realign(
                "placement",
                members=len(member_ids),
                warmups=sum(len(w) for w in warmups.values()),
            )

        result: Dict[str, List[TopicPartition]] = {}
        for member_id, assigned_tasks in task_assignment.items():
            tps: List[TopicPartition] = []
            for task in sorted(assigned_tasks):
                tps.extend(self._task_partitions[task])
            result[member_id] = sorted(tps)
        return result

    @staticmethod
    def _balance(
        task_assignment: Dict[str, List[TaskId]],
        previous: Dict[TaskId, str],
    ) -> None:
        """Level the assignment to a max-minus-min spread of at most one
        task, preferring to move tasks away from non-previous owners."""
        member_ids = sorted(task_assignment)
        while True:
            heavy = max(member_ids, key=lambda m: (len(task_assignment[m]), m))
            light = min(member_ids, key=lambda m: (len(task_assignment[m]), m))
            if len(task_assignment[heavy]) - len(task_assignment[light]) <= 1:
                return
            movable = sorted(
                task_assignment[heavy],
                key=lambda t: (previous.get(t) == heavy, t),
            )
            task = movable[0]
            task_assignment[heavy].remove(task)
            task_assignment[light].append(task)

    # -- probing rebalances ------------------------------------------------------------

    def _sync_probing_timer(self) -> None:
        """While any warmup is outstanding, keep a wake timer armed that
        requests a probing rebalance — the recomputation migrates every
        task whose warmup has caught up, and re-arms if some remain."""
        app = self._app
        if app is None:
            return
        if not self.has_warmups():
            if self._probing_timer is not None:
                self._probing_timer.cancel()
                self._probing_timer = None
            return
        timer = self._probing_timer
        if timer is not None and not timer.fired and not timer.cancelled:
            return
        self._probing_timer = app.cluster.clock.schedule(
            app.config.probing_rebalance_interval_ms, self._on_probing_timer
        )

    def _on_probing_timer(self) -> None:
        self._probing_timer = None
        app = self._app
        if app is None or not self.has_warmups():
            return
        self.probing_rebalances += 1
        app.cluster.group_coordinator.request_rebalance(
            app.config.application_id
        )
        # Re-armed by __call__ when the probing rebalance runs (and leaves
        # warmups outstanding); also re-arm here in case the request is
        # absorbed without a rebalance (e.g. the group emptied meanwhile).
        self._sync_probing_timer()

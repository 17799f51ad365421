"""MetadataService: (store, key) -> owning instance + standbys, with epochs.

Built on the group coordinator's assignment snapshots — the same ownership
bookkeeping the rebalance protocol maintains — rather than a parallel
registry that could drift. Every answer is stamped with the group's
generation as a **routing epoch**: a router caching metadata revalidates it
against the epoch and re-routes on mismatch, mirroring the epoch-keyed
metadata caches the producer/consumer clients use for leadership.

During a cooperative rebalance a migrating task transiently has no owner in
the snapshot (its partitions sit in the coordinator's unreleased map); the
service then reports the assignor's *intended* destination, which is
exactly the hint a retriable ``NotOwnedError`` should carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, TYPE_CHECKING

from repro.streams.runtime.task import TaskId
from repro.util import partition_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.app import KafkaStreams
    from repro.streams.runtime.instance import StreamsInstance


@dataclass
class KeyQueryMetadata:
    """Where a (store, partition) can be served, at a routing epoch."""

    store: str
    partition: int
    epoch: int
    owner: Optional["StreamsInstance"] = None
    standbys: List["StreamsInstance"] = field(default_factory=list)

    def candidates(self, allow_standbys: bool = True) -> List["StreamsInstance"]:
        """Instances to try, owner first (the only strong-read target)."""
        result = [] if self.owner is None else [self.owner]
        if allow_standbys:
            result.extend(self.standbys)
        return result


class MetadataService:
    """Routing metadata for interactive queries against one application."""

    def __init__(self, app: "KafkaStreams") -> None:
        self.app = app
        self.cluster = app.cluster

    # -- epochs ----------------------------------------------------------------

    def epoch(self) -> int:
        """The group generation doubles as the routing epoch: it bumps on
        every rebalance, which is precisely when ownership can move."""
        return self.cluster.group_coordinator.generation(
            self.app.config.application_id
        )

    # -- key/partition routing -------------------------------------------------

    def partition_for_key(self, store: str, key: Any) -> int:
        """The task partition holding ``key`` under the default
        partitioner (the one the topology's repartition step used)."""
        return partition_for(key, self.app.store_partition_count(store))

    def key_metadata(self, store: str, key: Any) -> KeyQueryMetadata:
        return self.partition_metadata(store, self.partition_for_key(store, key))

    def partition_metadata(self, store: str, partition: int) -> KeyQueryMetadata:
        sub_id = self.app.sub_id_for_store(store)
        if sub_id is None:
            raise KeyError(f"unknown store: {store!r}")
        task_id = TaskId(sub_id, partition)
        owner = self._owner_of(task_id)
        standbys = [
            instance
            for instance in self.app.instances
            if instance.alive
            and instance is not owner
            and task_id in instance.standby_tasks
        ]
        return KeyQueryMetadata(
            store=store,
            partition=partition,
            epoch=self.epoch(),
            owner=owner,
            standbys=standbys,
        )

    def all_partitions(self, store: str) -> List[KeyQueryMetadata]:
        """Per-partition metadata for scatter-gather range queries."""
        return [
            self.partition_metadata(store, partition)
            for partition in range(self.app.store_partition_count(store))
        ]

    def _owner_of(self, task_id: TaskId) -> Optional["StreamsInstance"]:
        group = self.app.config.application_id
        snapshot = self.cluster.group_coordinator.assignment_snapshot(group)
        assignor = self.app.assignor
        owner_member: Optional[str] = None
        for member_id, tps in snapshot.items():
            if any(assignor.task_for(tp) == task_id for tp in tps):
                owner_member = member_id
                break
        if owner_member is None:
            # Mid-handover: route at the assignor's intended destination
            # (it is building — or already holds — the warm state).
            owner_member = assignor.intended_member(task_id)
        if owner_member is None:
            return None
        for instance in self.app.instances:
            if (
                instance.alive
                and instance.consumer.member_id == owner_member
            ):
                return instance
        return None

"""Standby tasks: warm replicas of task state.

A standby task continuously replays a stateful task's changelog partitions
into a local store copy on an instance that does *not* own the task. When
the task migrates here, restoration starts from the standby's position
instead of offset zero — shrinking the recovery gap the paper's
changelog-restore design otherwise pays on large state.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, TYPE_CHECKING

from repro.streams.runtime.restore import restore_store
from repro.streams.runtime.task import TaskId
from repro.streams.state import create_store
from repro.streams.topology import SubTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster


class StandbyTask:
    """Maintains shadow stores for one (stateful) task."""

    def __init__(
        self,
        task_id: TaskId,
        sub_topology: SubTopology,
        application_id: str,
        cluster: "Cluster",
    ) -> None:
        self.task_id = task_id
        self.application_id = application_id
        self.cluster = cluster
        self._specs = [s for s in sub_topology.stores if s.changelog]
        self.stores: Dict[str, Any] = {}
        # store name -> next changelog offset to replay
        self.positions: Dict[str, int] = {}
        self.records_applied = 0
        for spec in self._specs:
            self.stores[spec.name] = create_store(spec)
            self.positions[spec.name] = 0
        self.update()

    def update(self) -> int:
        """Replay newly committed changelog records into the shadows."""
        applied = 0
        for spec in self._specs:
            count, next_offset, _complete = restore_store(
                self.cluster,
                self.stores[spec.name],
                spec.changelog_topic(self.application_id),
                self.task_id.partition,
                from_offset=self.positions[spec.name],
                kind="standby",
            )
            applied += count
            self.positions[spec.name] = next_offset
        self.records_applied += applied
        return applied

    def queryable_store(self, name: str):
        """Read-only view over a shadow store, or None when this standby
        does not replicate it. The view's position() is the changelog
        watermark bounded-staleness reads are judged against."""
        from repro.iq.view import QueryableStoreView

        store = self.stores.get(name)
        if store is None:
            return None
        return QueryableStoreView(store)

    def handoff(self) -> Dict[str, Tuple[Any, int]]:
        """Release the shadow stores (store, position) for promotion to an
        active task; the standby must not be used afterwards."""
        result = {
            name: (self.stores[name], self.positions[name])
            for name in self.stores
        }
        self.stores = {}
        self.positions = {}
        return result

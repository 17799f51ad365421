"""QueryServer: the per-instance endpoint answering pull queries.

Each :class:`~repro.streams.runtime.instance.StreamsInstance` exposes one of
these — the simulated stand-in for the REST endpoint a real Kafka Streams
node runs. Two consistency levels (the menu of arxiv 1907.06250):

* **strong** — owner-only, committed-offset-bounded. Served from a
  *committed shadow*: an incrementally maintained replay of the store's
  changelog with read-committed isolation, so the answer is byte-identical
  to the committed changelog state by construction. The replay is bounded
  by the changelog's last stable offset, which is exactly the KIP-447
  fencing condition — data from transactions still in flight (or from a
  zombie's soon-to-be-aborted transaction) can never be served.
* **bounded_staleness** — served from the active store (staleness 0,
  uncommitted writes included) or from a standby replica whose lag behind
  the committed changelog end is within the caller-supplied
  ``max_staleness`` bound.

Queries against a task this instance does not (or no longer) host raise a
retriable :class:`~repro.errors.NotOwnedError` carrying fresh routing
metadata — during cooperative rebalances callers re-route instead of
blocking on the handover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    NotOwnedError,
    StaleEpochError,
    StaleStoreError,
    StateStoreError,
)
from repro.streams.runtime.restore import restore_store
from repro.streams.runtime.task import TaskId
from repro.streams.state import create_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.instance import StreamsInstance

# Consistency levels.
STRONG = "strong"
BOUNDED = "bounded_staleness"

# Modelled service cost of one locally-served query (spent as reported
# latency, not as simulation time: queries are answered off the processing
# thread, like the paper's separate verifier machine).
QUERY_LOCAL_COST_MS = 0.05


@dataclass
class QueryResult:
    """One served read, with its provenance and staleness bound."""

    value: Any
    position: int            # changelog watermark of the serving store
    staleness: float         # committed changelog end - position (>= 0)
    source: str              # "active" | "standby" | "committed"
    instance_id: int
    partition: int
    epoch: int
    # Completeness frontier of the store's upstream cone (event time):
    # every input record with an earlier timestamp is committed-processed.
    # +inf = complete through everything produced (see obs/watermarks.py).
    frontier: float = float("inf")


class QueryServer:
    """Answers interactive queries from one instance's tasks/standbys."""

    def __init__(self, instance: "StreamsInstance") -> None:
        self.instance = instance
        self.app = instance.app
        self.cluster = instance.cluster
        # (task_id, store) -> committed shadow store, advanced lazily by
        # replaying the changelog's committed prefix on each strong read.
        self._shadows: Dict[Tuple[TaskId, str], Any] = {}

    # -- public query surface --------------------------------------------------

    def get(
        self,
        store: str,
        key: Any,
        partition: int,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
        epoch: Optional[int] = None,
    ) -> QueryResult:
        view, meta = self._resolve(
            store, partition, consistency, max_staleness, epoch
        )
        return self._result(view.get(key), view, meta, store)

    def range_scan(
        self,
        store: str,
        partition: int,
        from_key: Optional[Any] = None,
        to_key: Optional[Any] = None,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
        epoch: Optional[int] = None,
    ) -> QueryResult:
        view, meta = self._resolve(
            store, partition, consistency, max_staleness, epoch
        )
        return self._result(view.range(from_key, to_key), view, meta, store)

    def window_fetch(
        self,
        store: str,
        key: Any,
        partition: int,
        from_start: Optional[float] = None,
        to_start: Optional[float] = None,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
        epoch: Optional[int] = None,
    ) -> QueryResult:
        """(window_start, value) rows for ``key``; bounds optional."""
        view, meta = self._resolve(
            store, partition, consistency, max_staleness, epoch
        )
        if from_start is None and to_start is None:
            rows = view.fetch_key_windows(key)
        else:
            rows = view.fetch_range(
                key,
                float("-inf") if from_start is None else from_start,
                float("inf") if to_start is None else to_start,
            )
        return self._result(rows, view, meta, store)

    # -- resolution ------------------------------------------------------------

    def _resolve(
        self,
        store: str,
        partition: int,
        consistency: str,
        max_staleness: float,
        epoch: Optional[int],
    ):
        from repro.iq.view import QueryableStoreView

        app = self.app
        group = app.config.application_id
        current_epoch = self.cluster.group_coordinator.generation(group)
        if epoch is not None and epoch != current_epoch:
            raise StaleEpochError(
                f"routing epoch {epoch} is stale (current {current_epoch})",
                epoch=current_epoch,
            )
        sub_id = app.sub_id_for_store(store)
        if sub_id is None:
            raise StateStoreError(f"unknown store: {store!r}")
        task_id = TaskId(sub_id, partition)
        instance = self.instance
        if not instance.alive:
            raise NotOwnedError(
                f"instance {instance.instance_id} is down",
                hint=self._hint(store, partition),
            )

        if consistency == STRONG:
            task = instance.tasks.get(task_id)
            if task is None:
                self._shadows.pop((task_id, store), None)
                raise NotOwnedError(
                    f"task {task_id!r} not active on instance "
                    f"{instance.instance_id} (strong reads are owner-only)",
                    hint=self._hint(store, partition),
                )
            shadow = self._committed_shadow(task_id, store)
            return (
                QueryableStoreView(shadow),
                ("committed", 0.0, current_epoch, partition),
            )

        if consistency != BOUNDED:
            raise StateStoreError(f"unknown consistency level: {consistency!r}")
        task = instance.tasks.get(task_id)
        if task is not None:
            view = task.queryable_store(store)
            return view, ("active", 0.0, current_epoch, partition)
        standby = instance.standby_tasks.get(task_id)
        view = None if standby is None else standby.queryable_store(store)
        if view is None:
            raise NotOwnedError(
                f"task {task_id!r} has neither an active task nor a "
                f"standby on instance {instance.instance_id}",
                hint=self._hint(store, partition),
            )
        staleness = self._staleness(task_id, store, view.position())
        if staleness > max_staleness:
            raise StaleStoreError(
                f"standby for {task_id!r} is {staleness:.0f} records behind "
                f"the committed changelog (bound {max_staleness:.0f})",
                staleness=staleness,
            )
        return view, ("standby", staleness, current_epoch, partition)

    def _result(self, value: Any, view, meta, store: str) -> QueryResult:
        source, staleness, epoch, partition = meta
        return QueryResult(
            value=value,
            position=view.position(),
            staleness=staleness,
            source=source,
            instance_id=self.instance.instance_id,
            partition=partition,
            epoch=epoch,
            # Memoized per virtual instant by the tracker, so serving it
            # per query costs one dict lookup on the warm path.
            frontier=self.app.completeness_frontier(store),
        )

    def _hint(self, store: str, partition: int):
        """Fresh routing metadata for a retriable rejection."""
        return self.app.metadata_service.partition_metadata(store, partition)

    # -- committed shadows (strong reads) --------------------------------------

    def _committed_shadow(self, task_id: TaskId, store: str):
        """The store's committed changelog state, caught up incrementally.

        Replaying with read-committed isolation bounds the shadow at the
        changelog's last stable offset, so open transactions never leak
        into strong reads (KIP-447's gate, applied to the read path); the
        incremental catch-up fetches only the suffix since the last strong
        query."""
        key = (task_id, store)
        shadow = self._shadows.get(key)
        spec = next(
            s
            for s in self.app.sub_topology(task_id.sub_id).stores
            if s.name == store
        )
        if not spec.changelog:
            # No changelog: the active store is the only copy; strong
            # degenerates to reading it directly.
            return self.instance.tasks[task_id].state_store(store)
        if shadow is None:
            shadow = create_store(spec)
            self._shadows[key] = shadow
        restore_store(
            self.cluster,
            shadow,
            spec.changelog_topic(self.app.config.application_id),
            task_id.partition,
            from_offset=shadow.position(),
            kind="standby",
        )
        return shadow

    def _staleness(self, task_id: TaskId, store: str, position: int) -> float:
        from repro.broker.partition import TopicPartition
        from repro.config import READ_COMMITTED

        spec = next(
            (
                s
                for s in self.app.sub_topology(task_id.sub_id).stores
                if s.name == store and s.changelog
            ),
            None,
        )
        if spec is None:
            return 0.0
        tp = TopicPartition(
            spec.changelog_topic(self.app.config.application_id),
            task_id.partition,
        )
        end = self.cluster.end_offset(tp, READ_COMMITTED)
        return float(max(0, end - position))

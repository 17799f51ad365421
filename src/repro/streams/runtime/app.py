"""KafkaStreams: the application handle.

Creates internal topics (repartition + changelog), validates
co-partitioning, registers the task-aware assignor with the group
coordinator, and manages instances. Driving is cooperative: ``step()``
runs one poll-process-commit cycle on every live instance (no real
threads; the virtual clock supplies time).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.config import StreamsConfig
from repro.errors import TopologyError
from repro.sim.scheduler import Driver
from repro.streams.builder import resolve_topic
from repro.streams.runtime.assignor import StreamsAssignor
from repro.streams.runtime.instance import StreamsInstance
from repro.streams.runtime.task import TaskId
from repro.streams.topology import SubTopology, Topology


class KafkaStreams:
    """Run a :class:`Topology` against a :class:`Cluster`."""

    def __init__(
        self,
        topology: Topology,
        cluster: Cluster,
        config: Optional[StreamsConfig] = None,
    ) -> None:
        self.topology = topology
        self.cluster = cluster
        self.config = config or StreamsConfig()
        self.config.validate()
        self.instances: List[StreamsInstance] = []
        self._instance_seq = 0
        # Observer hook fired after every changelog restore, with
        # (task_id, store_name, store, changelog_topic, partition,
        # next_offset, from_offset). Invariant checkers attach here to
        # verify the restored store equals an independent changelog replay.
        self.restore_listener = None
        # Task unavailability windows: task_id -> virtual time of the last
        # commit before the task closed anywhere. Closed again by the first
        # record the task processes after reopening; the gap lands in the
        # rebalance_unavailability_ms histogram.
        self._task_unavailable_since: Dict[TaskId, float] = {}
        # Interactive queries: routing metadata and the client router.
        self._metadata_service = None
        self._query_router = None

        self._sub_topologies: Dict[int, SubTopology] = {
            sub.sub_id: sub for sub in topology.sub_topologies()
        }
        self._repartition_topics: Set[str] = set()
        self._create_repartition_topics()
        self._task_counts = self._validate_copartitioning()
        self._task_ids = sorted(
            TaskId(sub_id, partition)
            for sub_id, count in self._task_counts.items()
            for partition in range(count)
        )
        self._create_changelog_topics()
        # Bumped whenever the inputs of task / standby placement other than
        # a consumer's own assignment move: the assignor ran (warm-ups), or
        # an instance's ``tasks`` / ``alive`` changed. An instance re-syncs
        # its placement only when this or its consumer's
        # ``assignment_epoch`` differs from what its last sync saw.
        self.placement_epoch = 0

        task_partitions: Dict[TaskId, List[TopicPartition]] = {
            task_id: [
                TopicPartition(self.resolve_topic(topic), task_id.partition)
                for topic in sorted(
                    self._sub_topologies[task_id.sub_id].source_topics
                )
            ]
            for task_id in self._task_ids
        }
        self.assignor = StreamsAssignor(task_partitions)
        self.assignor.bind(self)
        cluster.group_coordinator.set_assignor(
            self.config.application_id, self.assignor
        )

        self.all_source_topics: Set[str] = {
            self.resolve_topic(topic)
            for sub in self._sub_topologies.values()
            for topic in sub.source_topics
        }

        # The app is itself an actor (poll/flush); its private driver backs
        # run_until_idle/run_for. Co-scheduling with other engines works by
        # registering the app with an external Driver instead.
        self._driver = Driver(cluster.clock, tracer=cluster.tracer)
        self._driver.register(self)

        # Lazy completeness-watermark tracker (repro.obs.watermarks);
        # built on first use so apps that never ask pay nothing.
        self._watermarks = None

    # -- topic management ---------------------------------------------------------------

    def resolve_topic(self, name: str) -> str:
        return resolve_topic(name, self.config.application_id)

    def is_repartition_topic(self, resolved_name: str) -> bool:
        return resolved_name in self._repartition_topics

    def _default_partitions(self) -> int:
        counts = [
            self.cluster.topic_metadata(topic).num_partitions
            for sub in self._sub_topologies.values()
            for topic in sub.source_topics
            if not self.topology.is_internal_topic(topic)
            and self.cluster.has_topic(topic)
        ]
        return max(counts) if counts else 1

    def _create_repartition_topics(self) -> None:
        default = self._default_partitions()
        for name, spec in self.topology.repartition_topics().items():
            physical = self.resolve_topic(name)
            self._repartition_topics.add(physical)
            if not self.cluster.has_topic(physical):
                self.cluster.create_topic(
                    physical, spec.num_partitions or default
                )

    def _validate_copartitioning(self) -> Dict[int, int]:
        """Every source topic of a sub-topology must exist and have the
        same partition count — that count is the sub-topology's task count."""
        task_counts: Dict[int, int] = {}
        for sub in self._sub_topologies.values():
            counts = {}
            for topic in sorted(sub.source_topics):
                physical = self.resolve_topic(topic)
                counts[physical] = self.cluster.topic_metadata(physical).num_partitions
            distinct = set(counts.values())
            if len(distinct) != 1:
                raise TopologyError(
                    f"sub-topology {sub.sub_id}: source topics are not "
                    f"co-partitioned: {counts}"
                )
            task_counts[sub.sub_id] = distinct.pop()
        return task_counts

    def _create_changelog_topics(self) -> None:
        for sub in self._sub_topologies.values():
            for spec in sub.stores:
                if not spec.changelog:
                    continue
                topic = spec.changelog_topic(self.config.application_id)
                if not self.cluster.has_topic(topic):
                    self.cluster.create_topic(topic, self._task_counts[sub.sub_id])

    def sub_topology(self, sub_id: int) -> SubTopology:
        return self._sub_topologies[sub_id]

    def task_ids(self) -> List[TaskId]:
        return list(self._task_ids)

    # -- rebalance availability accounting ---------------------------------------------------

    def note_task_closed(self, task_id: TaskId, since_ms: float) -> None:
        """Open an unavailability window for ``task_id`` at ``since_ms``
        (when the progress it closed with was committed). The earliest
        close wins when a task bounces through several instances before
        reopening."""
        self._task_unavailable_since.setdefault(task_id, since_ms)

    def first_process_listener_for(self, task_id: TaskId):
        """One-shot callback closing the unavailability window when a
        reopened task processes its first record; None when no window is
        open (initial startup is not a rebalance outage)."""
        since = self._task_unavailable_since.pop(task_id, None)
        if since is None:
            return None

        def listener() -> None:
            self.cluster.metrics.histogram(
                "rebalance_unavailability_ms",
                app=self.config.application_id,
            ).observe(self.cluster.clock.now - since)

        return listener

    # -- instance lifecycle -----------------------------------------------------------------

    def add_instance(self) -> StreamsInstance:
        instance = StreamsInstance(self, self._instance_seq)
        self._instance_seq += 1
        self.instances.append(instance)
        return instance

    def start(self, num_instances: int = 1) -> "KafkaStreams":
        for _ in range(num_instances):
            self.add_instance()
        return self

    def remove_instance(self, instance: StreamsInstance) -> None:
        """Graceful shutdown of one instance (commits, leaves the group)."""
        instance.close(commit=True)
        self.instances.remove(instance)

    def crash_instance(self, instance: StreamsInstance) -> None:
        """Abrupt failure: no commit, no abort. The group coordinator
        notices (modelled as an immediate session timeout) and rebalances;
        a dangling transaction stays open until fenced or timed out."""
        instance.crash()
        if instance.consumer.member_id is not None:
            # The eviction below models the session timeout firing, so it
            # counts as the coordinator *detecting* the dead instance.
            self.cluster.recovery.note_detection(
                "session_expired",
                group=self.config.application_id,
                member=instance.consumer.member_id,
            )
            self.cluster.group_coordinator.leave_group(
                self.config.application_id, instance.consumer.member_id
            )
        self.instances.remove(instance)

    def close(self) -> None:
        for instance in list(self.instances):
            self.remove_instance(instance)

    # -- driving ------------------------------------------------------------------------------

    def step(self) -> int:
        """One cooperative cycle across all instances; returns records
        processed. Transaction timeouts no longer need a per-cycle sweep:
        the coordinator's own timers reap timed-out transactions whenever
        virtual time passes their deadlines."""
        processed = 0
        for instance in list(self.instances):
            processed += instance.step()
        return processed

    # Actor protocol (repro.sim.scheduler.Driver): the whole app is one
    # pollable work source, so a single driver can co-schedule several
    # apps — or an app and the checkpoint baseline — against one cluster.
    def poll(self) -> int:
        return self.step()

    def flush(self) -> None:
        self.commit_all()

    @property
    def driver(self) -> Driver:
        """The app's private driver (scheduler stats live here)."""
        return self._driver

    def run_until_idle(self, max_steps: int = 10_000) -> int:
        """Drive the app until no work remains; returns records processed.

        Discrete-event semantics: when a cycle processes nothing, pending
        work is committed and the clock jumps straight to the next due
        timer (commit interval, in-flight transaction markers) instead of
        creeping forward in 1 ms idle ticks. Always finishes with commits
        on every instance so all outputs are visible to read-committed
        consumers.
        """
        return self._driver.run_until_idle(max_cycles=max_steps)

    def run_for(self, duration_ms: float) -> int:
        """Drive the app until ``duration_ms`` of virtual time passes,
        jumping idle gaps to the next due timer."""
        return self._driver.run_for(duration_ms)

    def commit_all(self) -> None:
        from repro.errors import TaskMigratedError

        for instance in self.instances:
            if instance.alive and instance.tasks:
                try:
                    instance.commit()
                except TaskMigratedError:
                    instance._handle_migration()

    # -- interactive queries ----------------------------------------------------------------------

    def sub_id_for_store(self, store_name: str) -> Optional[int]:
        """The sub-topology owning ``store_name``, or None if unknown."""
        for sub in self._sub_topologies.values():
            if any(spec.name == store_name for spec in sub.stores):
                return sub.sub_id
        return None

    def store_partition_count(self, store_name: str) -> int:
        """How many task partitions ``store_name`` is sharded across."""
        sub_id = self.sub_id_for_store(store_name)
        if sub_id is None:
            raise KeyError(f"unknown store: {store_name!r}")
        return self._task_counts[sub_id]

    @property
    def watermarks(self):
        """The app's completeness-watermark tracker (lazy singleton)."""
        if self._watermarks is None:
            from repro.obs.watermarks import WatermarkTracker

            self._watermarks = WatermarkTracker(self)
        return self._watermarks

    def completeness_frontier(self, store_name: Optional[str] = None) -> float:
        """The event-time completeness frontier (see obs/watermarks.py).

        Every input record with a timestamp strictly below the returned
        value is committed-processed; ``COMPLETE`` (+inf) means no
        backlog at all. With ``store_name``, only the store's upstream
        cone counts — the IQ layer serves this next to ``position()``.
        """
        return self.watermarks.frontier(store=store_name)

    @property
    def metadata_service(self):
        """(store, key) -> owner/standby routing with epochs (lazy)."""
        if self._metadata_service is None:
            from repro.iq.metadata import MetadataService

            self._metadata_service = MetadataService(self)
        return self._metadata_service

    def query_router(self, **kwargs: Any):
        """The app-local interactive-query client (lazy singleton). Extra
        kwargs (retry/backoff tuning) only apply on first construction."""
        if self._query_router is None:
            from repro.iq.router import QueryRouter

            self._query_router = QueryRouter(self, **kwargs)
        return self._query_router

    def store_contents(self, store_name: str) -> Dict[Any, Any]:
        """Merge a store's entries across all tasks hosting it (the
        interactive-query surface used by state catalogs, Section 6.1),
        read through the read-only queryable-state facade."""
        merged: Dict[Any, Any] = {}
        sub_id = self.sub_id_for_store(store_name)
        for instance in self.instances:
            for task_id, task in instance.tasks.items():
                if task_id.sub_id != sub_id:
                    continue
                view = task.queryable_store(store_name)
                merged.update(dict(view.all()))
        return merged

    def metric_total(self, attr: str) -> int:
        """Sum a numeric attribute over all live processors (e.g.
        ``dropped_records``)."""
        total = 0
        for instance in self.instances:
            for task in instance.tasks.values():
                for processor in task.processors().values():
                    total += getattr(processor, attr, 0)
        return total

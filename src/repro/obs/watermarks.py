"""Completeness watermarks: how far behind is the app, and up to which
event time is its output complete?

Two live signals, both recomputable from the partition logs alone (the
property the chaos ground-truth checks exploit):

* **Committed lag** — per input partition, the distance from the group's
  *committed* offset to the partition's visible end (LSO under
  read-committed, HW otherwise). Committed — not fetched — because under
  EOS the offset commit rides the same transaction as the output records:
  a committed offset means the corresponding output is durably visible.

* **Completeness frontier** — the event-time low watermark of the
  *uncommitted remainder*: the minimum record timestamp at offsets in
  ``[committed, visible end)`` across every input partition of the
  topology's upstream cone. Output is complete up to (exclusive of) that
  timestamp: every earlier event has been processed *and committed*.
  A fully caught-up cone reports ``float("inf")`` — complete through
  everything produced so far. The frontier is **not** monotone: a late
  record appended behind the watermark (within the out-of-order grace the
  paper's Section 2 permits) legitimately pulls it back.

Propagation is min-merge. A repartition topic is both a sink (of the
upstream sub-topology) and a source (of the downstream one); a record can
be committed upstream yet still pending in the repartition log, so a
store's frontier merges its own sub-topology's source partitions with
every transitively-upstream sub-topology's — the ``source → repartition →
changelog → sink`` chain collapses to "min over the upstream cone's input
partitions". Changelogs need no separate term: a store write commits
atomically with its input offsets, so the cone's inputs already bound it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.config import READ_COMMITTED, READ_UNCOMMITTED

#: Frontier value of a fully caught-up cone: complete through every event
#: produced so far.
COMPLETE = float("inf")


def partition_frontier(log, committed: Optional[int], isolation: str) -> float:
    """Min event timestamp of the committed-pending records of one log.

    ``committed`` is the group's committed offset (None = never committed,
    i.e. everything from ``log_start_offset`` is pending). The scan uses
    the same ``fetch`` the consumers use, so markers and (under
    read-committed) aborted spans are excluded exactly as a consumer would
    exclude them — an aborted record never becomes output, so it never
    holds the frontier back.
    """
    from_offset = log.log_start_offset if committed is None else committed
    from_offset = max(from_offset, log.log_start_offset)
    if from_offset >= log.last_stable_offset and isolation == READ_COMMITTED:
        return COMPLETE
    if from_offset >= log.high_watermark:
        return COMPLETE
    batch = fetch(log, from_offset, 2**31, isolation)
    if not batch:
        return COMPLETE
    return min(batch.timestamps())


class WatermarkTracker:
    """Per-app lag and completeness-frontier computation.

    Reads committed offsets through the group coordinator (the
    read-committed replay of the offsets topic — what an external
    observer would see) and partition ends from the leader logs. Results
    are memoized per virtual-clock instant: within one scheduler safe
    point the logs cannot change, so the IQ layer can serve the frontier
    per query without re-scanning per query.
    """

    def __init__(self, app) -> None:
        self.app = app
        self.cluster = app.cluster
        self.isolation = (
            READ_COMMITTED if app.config.eos_enabled else READ_UNCOMMITTED
        )
        # sub_id -> input partitions of that sub-topology's upstream cone.
        self._cones: Dict[int, List[TopicPartition]] = {}
        self._all_inputs: Optional[List[TopicPartition]] = None
        # Memo for one clock instant: (now) -> state shared by all calls.
        self._memo_at = float("nan")
        self._memo_committed: Dict[TopicPartition, Optional[int]] = {}
        self._memo_frontier: Dict[Optional[str], float] = {}
        self._memo_lags: Optional[Dict[TopicPartition, int]] = None

    # -- topology cones ----------------------------------------------------------------

    def input_partitions(self, store: Optional[str] = None) -> List[TopicPartition]:
        """The input partitions whose progress bounds ``store`` (or, with
        ``None``, the whole app): the upstream cone's source partitions."""
        if store is None:
            if self._all_inputs is None:
                self._all_inputs = self._partitions_of(
                    sorted(self.app.all_source_topics)
                )
            return self._all_inputs
        sub_id = self.app.sub_id_for_store(store)
        if sub_id is None:
            raise KeyError(f"unknown store: {store!r}")
        cone = self._cones.get(sub_id)
        if cone is None:
            cone = self._partitions_of(sorted(self._cone_topics(sub_id)))
            self._cones[sub_id] = cone
        return cone

    def _cone_topics(self, sub_id: int) -> Set[str]:
        """Resolved source topics of ``sub_id`` plus, transitively, of
        every sub-topology feeding its repartition inputs."""
        app = self.app
        producers: Dict[str, List[int]] = {}
        for sub in app._sub_topologies.values():
            for topic in sub.sink_topics:
                resolved = app.resolve_topic(topic)
                if app.is_repartition_topic(resolved):
                    producers.setdefault(resolved, []).append(sub.sub_id)
        topics: Set[str] = set()
        frontier = [sub_id]
        seen = set()
        while frontier:
            sid = frontier.pop()
            if sid in seen:
                continue
            seen.add(sid)
            for topic in app.sub_topology(sid).source_topics:
                resolved = app.resolve_topic(topic)
                topics.add(resolved)
                for upstream in producers.get(resolved, ()):
                    frontier.append(upstream)
        return topics

    def _partitions_of(self, topics: List[str]) -> List[TopicPartition]:
        return [
            tp
            for topic in topics
            for tp in self.cluster.partitions_for(topic)
        ]

    # -- per-instant memo --------------------------------------------------------------

    def _refresh_memo(self) -> None:
        now = self.cluster.clock.now
        if self._memo_at == now:
            return
        self._memo_at = now
        self._memo_frontier = {}
        self._memo_lags = None
        self._memo_committed = self.cluster.group_coordinator.fetch_committed(
            self.app.config.application_id, self.input_partitions()
        )

    def committed_offsets(self) -> Dict[TopicPartition, Optional[int]]:
        """The group's committed offset per input partition (this instant)."""
        self._refresh_memo()
        return dict(self._memo_committed)

    # -- lag ---------------------------------------------------------------------------

    def lags(self) -> Dict[TopicPartition, int]:
        """Committed-offset vs visible-end lag per input partition."""
        self._refresh_memo()
        if self._memo_lags is None:
            lags: Dict[TopicPartition, int] = {}
            for tp in self.input_partitions():
                try:
                    end = self.cluster.end_offset(tp, self.isolation)
                    start = self.cluster.partition_state(tp).leader_log().log_start_offset
                except Exception:
                    # Leaderless partition mid-fault: carry the last value
                    # forward by reporting nothing for this tp this tick.
                    continue
                committed = self._memo_committed.get(tp)
                base = start if committed is None else max(committed, start)
                lags[tp] = max(0, end - base)
            self._memo_lags = lags
        return dict(self._memo_lags)

    def total_lag(self) -> int:
        return sum(self.lags().values())

    # -- frontier ----------------------------------------------------------------------

    def frontier(self, store: Optional[str] = None) -> float:
        """The completeness frontier of ``store`` (or the whole app).

        ``float("inf")`` (:data:`COMPLETE`) means the cone is fully
        committed: output is complete through everything produced.
        """
        self._refresh_memo()
        cached = self._memo_frontier.get(store)
        if cached is not None:
            return cached
        value = COMPLETE
        for tp in self.input_partitions(store):
            try:
                log = self.cluster.partition_state(tp).leader_log()
            except Exception:
                continue
            f = partition_frontier(
                log, self._memo_committed.get(tp), self.isolation
            )
            if f < value:
                value = f
        self._memo_frontier[store] = value
        return value

    # -- gauges ------------------------------------------------------------------------

    def update_gauges(self) -> None:
        """Publish lag and frontier gauges into the cluster registry.

        ``streams.lag{app,topic,partition}`` per input partition,
        ``streams.frontier{app}`` for the app cone, and
        ``streams.frontier{app,store}`` per store.
        """
        metrics = self.cluster.metrics
        app_id = self.app.config.application_id
        for tp, lag in self.lags().items():
            metrics.gauge(
                "streams.lag", app=app_id, topic=tp.topic, partition=tp.partition
            ).set(lag)
        metrics.gauge("streams.frontier", app=app_id).set(self.frontier())
        for sub in self.app._sub_topologies.values():
            for spec in sub.stores:
                metrics.gauge(
                    "streams.frontier", app=app_id, store=spec.name
                ).set(self.frontier(spec.name))

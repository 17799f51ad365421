"""GlobalKTable: broadcast reference tables.

A global table is fully replicated to *every* instance (each one consumes
all partitions of the backing topic into a local store), so a stream can
join against it on an arbitrary join key — no co-partitioning, no
repartition topic. This matches the reference-data enrichment pattern of
the paper's Section 6.1 pipeline, where "less frequently updated reference
market data" topics feed the main processing path.

Unlike regular state stores, global stores are not changelogged (the
source topic *is* the changelog) and are not part of any task's
transactional state: they are read-only caches maintained outside the
read-process-write cycle, refreshed with read-committed reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, TYPE_CHECKING

from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.config import READ_COMMITTED
from repro.streams.processor import Processor
from repro.streams.records import StreamRecord
from repro.streams.state.kv_store import InMemoryKeyValueStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster
    from repro.streams.builder import StreamsBuilder


@dataclass(frozen=True)
class GlobalTableSpec:
    """Topology-level declaration of a global table."""

    store_name: str
    topic: str


class GlobalKTable:
    """DSL handle for a global table (join-only; no transformations)."""

    def __init__(self, builder: "StreamsBuilder", spec: GlobalTableSpec) -> None:
        self.builder = builder
        self.spec = spec

    @property
    def store_name(self) -> str:
        return self.spec.store_name


class GlobalStateStore:
    """Instance-side maintenance of one global table's full contents."""

    def __init__(self, cluster: "Cluster", spec: GlobalTableSpec) -> None:
        self.cluster = cluster
        self.spec = spec
        self.store = InMemoryKeyValueStore(spec.store_name)
        self._positions: Dict[TopicPartition, int] = {
            tp: 0 for tp in cluster.partitions_for(spec.topic)
        }
        self.records_applied = 0
        self.update()

    def update(self) -> int:
        """Pull newly committed records from every partition of the
        backing topic into the local copy."""
        applied = 0
        for tp, position in list(self._positions.items()):
            log = self.cluster.partition_state(tp).leader_log()
            result = fetch(
                log,
                max(position, log.log_start_offset),
                max_records=2**31,
                isolation_level=READ_COMMITTED,
            )
            _, _, keys, values, _ = result.columns()
            for key, value in zip(keys, values):
                self.store.restore_put(key, value)
            applied += result.valid_count
            self._positions[tp] = result.next_offset
        self.records_applied += applied
        return applied


class GlobalTableJoinProcessor(Processor):
    """Stream–global-table join: look up an arbitrary join key computed
    from each stream record (no co-partitioning requirement)."""

    def __init__(
        self,
        store_name: str,
        key_selector: Callable[[Any, Any], Any],
        joiner: Callable[[Any, Any], Any],
        left_join: bool,
    ) -> None:
        self._store_name = store_name
        self._key_selector = key_selector
        self._joiner = joiner
        self._left_join = left_join

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        join_key = self._key_selector(record.key, record.value)
        table_value = None if join_key is None else self._store.get(join_key)
        if table_value is None and not self._left_join:
            return
        self.context.forward(
            record.with_value(self._joiner(record.value, table_value))
        )

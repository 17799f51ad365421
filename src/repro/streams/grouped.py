"""Grouped streams: the step between a KStream and an aggregated KTable."""

from __future__ import annotations

from typing import Any, Callable, Optional, Set, TYPE_CHECKING

from repro.streams.aggregates import (
    StreamAggregateProcessor,
    WindowedAggregateProcessor,
    count_aggregator,
    count_initializer,
    reduce_adapter,
    reduce_initializer,
)
from repro.streams.topology import StateStoreSpec
from repro.streams.windows import TimeWindows

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.builder import StreamsBuilder
    from repro.streams.ktable import KTable


class KGroupedStream:
    """A stream grouped by key, ready to aggregate."""

    def __init__(
        self, builder: "StreamsBuilder", node: str, source_topics: Set[str]
    ) -> None:
        self.builder = builder
        self.node = node
        self.source_topics = set(source_topics)

    def windowed_by(self, windows: TimeWindows) -> "TimeWindowedKStream":
        """Window the grouped stream (tumbling or hopping); aggregates
        become windowed tables."""
        return TimeWindowedKStream(self, windows)

    def count(self, store_name: Optional[str] = None) -> "KTable":
        """Running count per key, as an evolving table."""
        return self.aggregate(
            count_initializer, count_aggregator, store_name,
            prefix="KSTREAM-COUNT",
        )

    def reduce(
        self,
        reducer: Callable[[Any, Any], Any],
        store_name: Optional[str] = None,
    ) -> "KTable":
        """Combine values per key with ``reducer(aggregate, value)``."""
        return self.aggregate(
            reduce_initializer,
            reduce_adapter(reducer),
            store_name,
            prefix="KSTREAM-REDUCE",
        )

    def aggregate(
        self,
        initializer: Callable[[], Any],
        aggregator: Callable[[Any, Any, Any], Any],
        store_name: Optional[str] = None,
        prefix: str = "KSTREAM-AGGREGATE",
    ) -> "KTable":
        """General aggregation: ``aggregator(key, value, aggregate)``."""
        from repro.streams.ktable import KTable

        topo = self.builder.topology
        store = store_name or topo.unique_name(f"{prefix}-STORE")
        topo.add_state_store(StateStoreSpec(name=store, kind="kv"))
        node = topo.unique_name(prefix)
        topo.add_processor(
            node,
            lambda: StreamAggregateProcessor(store, initializer, aggregator),
            parents=[self.node],
            stores=[store],
        )
        return KTable(
            builder=self.builder,
            node=node,
            store_name=store,
            source_topics=self.source_topics,
        )


class TimeWindowedKStream:
    """A grouped stream with a window definition attached."""

    def __init__(self, grouped: KGroupedStream, windows: TimeWindows) -> None:
        self._grouped = grouped
        self.windows = windows

    def count(self, store_name: Optional[str] = None) -> "KTable":
        """Windowed count (the Figure 2 pageview example)."""
        return self.aggregate(
            count_initializer, count_aggregator, store_name,
            prefix="KSTREAM-WINDOWED-COUNT",
        )

    def reduce(
        self,
        reducer: Callable[[Any, Any], Any],
        store_name: Optional[str] = None,
    ) -> "KTable":
        return self.aggregate(
            reduce_initializer,
            reduce_adapter(reducer),
            store_name,
            prefix="KSTREAM-WINDOWED-REDUCE",
        )

    def aggregate(
        self,
        initializer: Callable[[], Any],
        aggregator: Callable[[Any, Any, Any], Any],
        store_name: Optional[str] = None,
        prefix: str = "KSTREAM-WINDOWED-AGGREGATE",
    ) -> "KTable":
        from repro.streams.ktable import KTable

        builder = self._grouped.builder
        topo = builder.topology
        store = store_name or topo.unique_name(f"{prefix}-STORE")
        topo.add_state_store(
            StateStoreSpec(
                name=store, kind="window", retention_ms=self.windows.retention_ms
            )
        )
        windows = self.windows
        node = topo.unique_name(prefix)
        topo.add_processor(
            node,
            lambda: WindowedAggregateProcessor(
                store, windows, initializer, aggregator
            ),
            parents=[self._grouped.node],
            stores=[store],
        )
        return KTable(
            builder=builder,
            node=node,
            store_name=store,
            source_topics=self._grouped.source_topics,
            windows=windows,
        )


class KGroupedTable:
    """A re-grouped table (from KTable.group_by), aggregated with
    retraction-aware adder/subtractor pairs."""

    def __init__(
        self, builder: "StreamsBuilder", node: str, source_topics: Set[str]
    ) -> None:
        self.builder = builder
        self.node = node
        self.source_topics = set(source_topics)

    def count(self, store_name: Optional[str] = None) -> "KTable":
        return self.aggregate(
            lambda: 0,
            adder=lambda k, v, agg: agg + 1,
            subtractor=lambda k, v, agg: agg - 1,
            store_name=store_name,
        )

    def reduce(
        self,
        adder: Callable[[Any, Any], Any],
        subtractor: Callable[[Any, Any], Any],
        store_name: Optional[str] = None,
    ) -> "KTable":
        return self.aggregate(
            lambda: None,
            adder=lambda k, v, agg: v if agg is None else adder(agg, v),
            subtractor=lambda k, v, agg: None if agg is None else subtractor(agg, v),
            store_name=store_name,
        )

    def aggregate(
        self,
        initializer: Callable[[], Any],
        adder: Callable[[Any, Any, Any], Any],
        subtractor: Callable[[Any, Any, Any], Any],
        store_name: Optional[str] = None,
    ) -> "KTable":
        from repro.streams.ktable import KTable
        from repro.streams.table_ops import TableAggregateProcessor

        topo = self.builder.topology
        store = store_name or topo.unique_name("KTABLE-AGGREGATE-STORE")
        topo.add_state_store(StateStoreSpec(name=store, kind="kv"))
        node = topo.unique_name("KTABLE-AGGREGATE")
        topo.add_processor(
            node,
            lambda: TableAggregateProcessor(store, initializer, adder, subtractor),
            parents=[self.node],
            stores=[store],
        )
        return KTable(
            builder=self.builder,
            node=node,
            store_name=store,
            source_topics=self.source_topics,
        )

"""KStream: the record-stream half of the DSL.

A KStream is an append-only stream of independent records. Operations that
may change the record key (map, select_key, group_by) mark the stream as
*repartition required*: the next key-dependent operation (grouping, joins)
routes the data through an internal repartition topic so that all records
with the same key land in the same partition — the data-locality shuffle
of Figure 3.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Set, Tuple, TYPE_CHECKING

from repro.errors import TopologyError
from repro.streams.joins import (
    JoinWindows,
    StreamJoinSideProcessor,
    StreamTableJoinProcessor,
)
from repro.streams.processor import FusedStatelessProcessor, Processor
from repro.streams.records import StreamRecord
from repro.streams.topology import StateStoreSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.builder import StreamsBuilder
    from repro.streams.grouped import KGroupedStream
    from repro.streams.ktable import KTable


class _AbsorbProcessor(Processor):
    """Consumes records without forwarding; used to merge a table's
    sub-topology with a join's without leaking its Changes into the join."""

    def process(self, record: StreamRecord) -> None:
        return None

    def process_batch(self, chunk) -> None:
        return None


class _PassThroughProcessor(Processor):
    """The merge node of a two-sided join: hands on what either side
    emits."""

    def process(self, record: StreamRecord) -> None:
        self.context.forward(record)

    def process_batch(self, chunk) -> None:
        self.context.forward_chunk(chunk)


class KStream:
    """A stream node in the topology under construction."""

    def __init__(
        self,
        builder: "StreamsBuilder",
        node: str,
        source_topics: Set[str],
        repartition_required: bool,
    ) -> None:
        self.builder = builder
        self.node = node
        self.source_topics = set(source_topics)
        self.repartition_required = repartition_required

    # -- internals ---------------------------------------------------------------

    def _derive(self, node: str, repartition_required: Optional[bool] = None,
                source_topics: Optional[Set[str]] = None) -> "KStream":
        return KStream(
            builder=self.builder,
            node=node,
            source_topics=self.source_topics if source_topics is None else source_topics,
            repartition_required=(
                self.repartition_required
                if repartition_required is None
                else repartition_required
            ),
        )

    def _stateless(
        self,
        prefix: str,
        kind: str,
        fn: Callable,
        key_changed: bool = False,
    ) -> "KStream":
        """Add one stateless operator node. ``kind`` selects the fused
        operator semantics; ``fn`` is the user's (key, value)-level
        function — keeping it at that level (rather than a pre-baked
        record closure) is what lets the processor run it over whole
        column chunks without materializing records."""
        topo = self.builder.topology
        name = topo.unique_name(prefix)
        topo.add_processor(
            name,
            lambda kind=kind, fn=fn: FusedStatelessProcessor(kind, fn),
            parents=[self.node],
        )
        return self._derive(
            name,
            repartition_required=self.repartition_required or key_changed,
        )

    def repartition(self, num_partitions: Optional[int] = None,
                    name: Optional[str] = None) -> "KStream":
        """Route the stream through an internal repartition topic.

        Inserted automatically before key-based operations when the key may
        have changed; call explicitly to control partition counts (as in
        Figure 3, where the repartition topic has 3 partitions while the
        source topic has 2).
        """
        from repro.streams.builder import APP_ID_TOKEN

        topo = self.builder.topology
        base = name or topo.unique_name("KSTREAM-REPARTITION")
        topic = f"{APP_ID_TOKEN}-{base}-repartition"
        topo.add_repartition_topic(topic, num_partitions)
        sink = topo.unique_name("KSTREAM-SINK")
        topo.add_sink(sink, topic, parents=[self.node])
        source = topo.unique_name("KSTREAM-SOURCE")
        topo.add_source(source, [topic])
        return KStream(
            builder=self.builder,
            node=source,
            source_topics={topic},
            repartition_required=False,
        )

    def _maybe_repartition(self, num_partitions: Optional[int] = None) -> "KStream":
        if not self.repartition_required:
            return self
        return self.repartition(num_partitions)

    # -- stateless transforms -------------------------------------------------------

    def filter(self, predicate: Callable[[Any, Any], bool]) -> "KStream":
        """Keep records for which ``predicate(key, value)`` is true."""
        return self._stateless("KSTREAM-FILTER", "filter", predicate)

    def map(self, mapper: Callable[[Any, Any], Tuple[Any, Any]]) -> "KStream":
        """Transform each record to a new (key, value); may change the key,
        so downstream key-based operations will repartition."""
        return self._stateless("KSTREAM-MAP", "map", mapper, key_changed=True)

    def map_values(self, mapper: Callable[[Any], Any]) -> "KStream":
        """Transform values only — key unchanged, no repartition needed."""
        return self._stateless("KSTREAM-MAPVALUES", "map_values", mapper)

    def select_key(self, selector: Callable[[Any, Any], Any]) -> "KStream":
        return self._stateless(
            "KSTREAM-KEY-SELECT", "select_key", selector, key_changed=True
        )

    def process(
        self,
        supplier: Callable[[], Processor],
        stores: Iterable[str] = (),
        name: Optional[str] = None,
    ) -> "KStream":
        """Attach a custom Processor-API node (escape hatch from the DSL)."""
        topo = self.builder.topology
        node = name or topo.unique_name("KSTREAM-PROCESSOR")
        topo.add_processor(node, supplier, parents=[self.node], stores=list(stores))
        return self._derive(node)

    # -- output --------------------------------------------------------------------

    def to(
        self,
        topic: str,
        partitioner: Optional[Callable[[Any, Any, int], int]] = None,
    ) -> None:
        """Terminate the stream into a sink topic."""
        topo = self.builder.topology
        sink = topo.unique_name("KSTREAM-SINK")
        topo.add_sink(sink, topic, parents=[self.node], partitioner=partitioner)

    # -- grouping -------------------------------------------------------------------

    def group_by_key(self, num_partitions: Optional[int] = None) -> "KGroupedStream":
        """Group by the current key (repartitions only if the key changed)."""
        from repro.streams.grouped import KGroupedStream

        stream = self._maybe_repartition(num_partitions)
        return KGroupedStream(stream.builder, stream.node, stream.source_topics)

    def group_by(
        self,
        selector: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "KGroupedStream":
        return self.select_key(selector).group_by_key(num_partitions)

    # -- joins -----------------------------------------------------------------------

    def join(
        self,
        other,
        joiner: Callable[[Any, Any], Any],
        windows: Optional[JoinWindows] = None,
    ) -> "KStream":
        """Inner join with another stream (windowed) or a table."""
        if isinstance(other, KStream):
            if windows is None:
                raise TopologyError("stream-stream joins require JoinWindows")
            return self._stream_join(other, joiner, windows, False, False)
        return self._table_join(other, joiner, left_join=False)

    def left_join(
        self,
        other,
        joiner: Callable[[Any, Any], Any],
        windows: Optional[JoinWindows] = None,
    ) -> "KStream":
        if isinstance(other, KStream):
            if windows is None:
                raise TopologyError("stream-stream joins require JoinWindows")
            return self._stream_join(other, joiner, windows, True, False)
        return self._table_join(other, joiner, left_join=True)

    def outer_join(
        self,
        other: "KStream",
        joiner: Callable[[Any, Any], Any],
        windows: JoinWindows,
    ) -> "KStream":
        if not isinstance(other, KStream):
            raise TopologyError("outer joins are only defined stream-stream")
        return self._stream_join(other, joiner, windows, True, True)

    def _stream_join(
        self,
        other: "KStream",
        joiner: Callable[[Any, Any], Any],
        windows: JoinWindows,
        left_outer: bool,
        right_outer: bool,
    ) -> "KStream":
        left = self._maybe_repartition()
        right = other._maybe_repartition()
        topo = self.builder.topology

        left_store = topo.unique_name("KSTREAM-JOINTHIS-STORE")
        right_store = topo.unique_name("KSTREAM-JOINOTHER-STORE")
        for store in (left_store, right_store):
            topo.add_state_store(
                StateStoreSpec(
                    name=store, kind="window", retention_ms=windows.retention_ms
                )
            )

        left_node = topo.unique_name("KSTREAM-JOINTHIS")
        topo.add_processor(
            left_node,
            lambda: StreamJoinSideProcessor(
                this_store=left_store,
                other_store=right_store,
                windows=windows,
                joiner=joiner,
                is_left_side=True,
                emit_unmatched=left_outer,
            ),
            parents=[left.node],
            stores=[left_store, right_store],
        )
        right_node = topo.unique_name("KSTREAM-JOINOTHER")
        topo.add_processor(
            right_node,
            lambda: StreamJoinSideProcessor(
                this_store=right_store,
                other_store=left_store,
                windows=windows,
                joiner=joiner,
                is_left_side=False,
                emit_unmatched=right_outer,
            ),
            parents=[right.node],
            stores=[left_store, right_store],
        )
        merge = topo.unique_name("KSTREAM-JOINMERGE")
        topo.add_processor(
            merge, _PassThroughProcessor, parents=[left_node, right_node]
        )
        return KStream(
            builder=self.builder,
            node=merge,
            source_topics=left.source_topics | right.source_topics,
            repartition_required=False,
        )

    def _table_join(self, table: "KTable", joiner, left_join: bool) -> "KStream":
        stream = self._maybe_repartition()
        topo = self.builder.topology
        store = table.require_materialized()
        # The absorbing edge merges the table's sub-topology with the
        # stream's so the join task hosts the table's store, without the
        # table's Changes reaching the join processor.
        absorb = topo.unique_name("KTABLE-JOIN-ABSORB")
        topo.add_processor(absorb, _AbsorbProcessor, parents=[table.node])
        join = topo.unique_name("KSTREAM-JOIN-TABLE")
        topo.add_processor(
            join,
            lambda: StreamTableJoinProcessor(store, joiner, left_join),
            parents=[stream.node, absorb],
            stores=[store],
        )
        return KStream(
            builder=self.builder,
            node=join,
            source_topics=stream.source_topics | table.source_topics,
            repartition_required=False,
        )

"""Table-typed processors: materialization and Change-aware transforms.

A KTable node forwards :class:`Change` values. Because tables support
amendment semantics, speculative emission is always safe for them: a later
revision simply overwrites the earlier result downstream (Section 5).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.streams.processor import Processor
from repro.streams.records import Change, ColumnChunk, StreamRecord


class TableSourceProcessor(Processor):
    """Materializes a changelog-stream topic into a table store and turns
    plain records into Changes (old value looked up from the store)."""

    def __init__(self, store_name: str) -> None:
        self._store_name = store_name

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        if record.key is None:
            return
        old = self._store.get(record.key)
        new = record.value
        if new is None:
            self._store.delete(record.key)
        else:
            self._store.put(record.key, new)
        self.context.forward(record.with_value(Change(new, old)))

    def process_batch(self, chunk: ColumnChunk) -> None:
        """Grouped column scan: one store get per distinct key on first
        touch, the latest value kept in a dict, one store write per key at
        chunk end (a ``put_many`` of the live rows, then the deletes). The
        forwarded Changes are those :meth:`process` emits record by record;
        no reader sees the store mid-chunk, since stream-side records come
        in chunks of their own."""
        keys = chunk.keys
        store = self._store
        pending: dict = {}
        kept: list = []
        out_v: list = []
        for i, (key, new) in enumerate(zip(keys, chunk.values)):
            if key is None:
                continue
            old = pending[key] if key in pending else store.get(key)
            pending[key] = new
            kept.append(i)
            out_v.append(Change(new, old))
        if not kept:
            return
        store.put_many([kv for kv in pending.items() if kv[1] is not None])
        for key, value in pending.items():
            if value is None:
                store.delete(key)
        if len(kept) != len(keys):
            chunk = chunk.take(kept, self.context.stream_time)
        self.context.forward_chunk(chunk.with_values(out_v))


class TableFilterProcessor(Processor):
    """Filter on a table: a result that stops matching must be *retracted*
    downstream, so the new side becomes None rather than disappearing."""

    def __init__(self, predicate: Callable[[Any, Any], bool]) -> None:
        self._predicate = predicate

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        new = change.new if (
            change.new is not None and self._predicate(record.key, change.new)
        ) else None
        old = change.old if (
            change.old is not None and self._predicate(record.key, change.old)
        ) else None
        if new is None and old is None:
            return
        self.context.forward(record.with_value(Change(new, old)))


class TableMapValuesProcessor(Processor):
    """map_values over both sides of a Change (old must map too, or the
    downstream retraction would not match what was accumulated)."""

    def __init__(
        self,
        mapper: Callable[[Any, Any], Any],
        store_name: Optional[str] = None,
    ) -> None:
        self._mapper = mapper
        self._store_name = store_name

    def init(self, context) -> None:
        super().init(context)
        self._store = (
            context.state_store(self._store_name) if self._store_name else None
        )

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        new = None if change.new is None else self._mapper(record.key, change.new)
        old = None if change.old is None else self._mapper(record.key, change.old)
        if self._store is not None:
            if new is None:
                self._store.delete(record.key)
            else:
                self._store.put(record.key, new)
        self.context.forward(record.with_value(Change(new, old)))


class TableToStreamProcessor(Processor):
    """Unwrap Changes into plain new-value records (KTable#toStream)."""

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        self.context.forward(record.with_value(change.new))

    def process_batch(self, chunk: ColumnChunk) -> None:
        self.context.forward_chunk(
            chunk.with_values([change.new for change in chunk.values])
        )


class TableMaterializeProcessor(Processor):
    """Materialize an upstream table node's Changes into a store (used when
    a downstream join needs to look the table up)."""

    def __init__(self, store_name: str) -> None:
        self._store_name = store_name

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        if change.new is None:
            self._store.delete(record.key)
        else:
            self._store.put(record.key, change.new)
        self.context.forward(record)


class TableGroupByMapProcessor(Processor):
    """KTable.group_by: re-key each Change for downstream re-aggregation.

    Emits the re-keyed new side as an accumulation and the re-keyed old
    side as a retraction; if the selector maps them to different keys, two
    records are forwarded — this is how the paper's "forward both the prior
    and the updated results" materializes for re-grouping.
    """

    def __init__(self, selector: Callable[[Any, Any], Any]) -> None:
        # selector(key, value) -> (new_key, new_value)
        self._selector = selector

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        new_kv = (
            self._selector(record.key, change.new)
            if change.new is not None
            else None
        )
        old_kv = (
            self._selector(record.key, change.old)
            if change.old is not None
            else None
        )
        if new_kv is not None and old_kv is not None and new_kv[0] == old_kv[0]:
            self.context.forward(
                record.with_kv(new_kv[0], Change(new_kv[1], old_kv[1]))
            )
            return
        if old_kv is not None:
            self.context.forward(record.with_kv(old_kv[0], Change(None, old_kv[1])))
        if new_kv is not None:
            self.context.forward(record.with_kv(new_kv[0], Change(new_kv[1], None)))


class TableAggregateProcessor(Processor):
    """KGroupedTable aggregation with adder + subtractor.

    Retraction-aware: for each incoming Change, the subtractor removes the
    old value's contribution and the adder applies the new one.
    """

    def __init__(
        self,
        store_name: str,
        initializer: Callable[[], Any],
        adder: Callable[[Any, Any, Any], Any],
        subtractor: Callable[[Any, Any, Any], Any],
    ) -> None:
        self._store_name = store_name
        self._initializer = initializer
        self._adder = adder
        self._subtractor = subtractor

    def init(self, context) -> None:
        super().init(context)
        self._store = context.state_store(self._store_name)

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        key = record.key
        old_agg = self._store.get(key)
        agg = old_agg if old_agg is not None else self._initializer()
        if change.old is not None:
            agg = self._subtractor(key, change.old, agg)
        if change.new is not None:
            agg = self._adder(key, change.new, agg)
        self._store.put(key, agg)
        self.context.forward(
            StreamRecord(
                key=key,
                value=Change(agg, old_agg),
                timestamp=record.timestamp,
                headers=record.headers,
            )
        )

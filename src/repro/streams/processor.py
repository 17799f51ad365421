"""The Processor API: the low-level layer the DSL compiles onto.

A :class:`Processor` defines what happens to one record in :meth:`process`
and forwards results to child nodes through its :class:`ProcessorContext`.
The runtime hands it column chunks (:meth:`Processor.process_batch`) and
passes what it forwarded on as chunks too. Within a sub-topology that is a
direct method call — the operator fusion the paper describes in Section
3.2 ("operators within a sub-topology are effectively fused together ...
without incurring any network overhead").
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import StateStoreError
from repro.streams.records import ColumnChunk, StreamRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.task import StreamTask


class Processor:
    """Base class for all processors; subclasses define :meth:`process`.

    A task only ever calls :meth:`process_batch`. The default walks the
    chunk through :meth:`process`, so every processor takes chunks; an
    override that works on whole columns is an optimisation and must emit
    what the walk would, record for record.
    """

    def init(self, context: "ProcessorContext") -> None:
        self.context = context

    def process(self, record: StreamRecord) -> None:
        raise NotImplementedError

    def process_batch(self, chunk: ColumnChunk) -> None:
        """One :meth:`process` call per position, each seeing
        ``context.stream_time`` as a record-at-a-time run would show it."""
        context = self.context
        process = self.process
        try:
            for key, value, timestamp, headers, stream_time in zip(
                chunk.keys, chunk.values, chunk.timestamps, chunk.headers,
                chunk.stream_times_from(context.stream_time),
            ):
                context._position_time = stream_time
                process(StreamRecord(key, value, timestamp, headers))
        finally:
            context._position_time = None

    def on_commit(self) -> None:
        """Hook invoked when the owning task commits, inside its
        transaction; what it forwards commits with it."""

    def close(self) -> None:
        """Hook invoked when the owning task closes."""


class FusedStatelessProcessor(Processor):
    """The DSL's stateless operators (filter / map / mapValues /
    selectKey) as one processor.

    The scalar methods define each operator per record; the columnar ones
    transform whole columns in a single pass — list comprehensions over
    the key/value columns — and forward a new chunk, sharing untouched
    columns by reference. Both call the same user function with the same
    (key, value) arguments in the same order, so outputs are identical
    record-for-record.
    """

    KINDS = ("filter", "map", "map_values", "select_key")

    def __init__(self, kind: str, fn: Callable) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown stateless operator kind: {kind!r}")
        self.kind = kind
        self._fn = fn
        # Bind the dispatch once; instance attributes shadow the base
        # methods, so the per-record/per-chunk call is direct.
        self.process = getattr(self, f"_scalar_{kind}")
        self.process_batch = getattr(self, f"_batch_{kind}")

    # -- scalar path ----------------------------------------------------------

    def _scalar_filter(self, record: StreamRecord) -> None:
        if self._fn(record.key, record.value):
            self.context.forward(record)

    def _scalar_map(self, record: StreamRecord) -> None:
        key, value = self._fn(record.key, record.value)
        self.context.forward(record.with_kv(key, value))

    def _scalar_map_values(self, record: StreamRecord) -> None:
        self.context.forward(record.with_value(self._fn(record.value)))

    def _scalar_select_key(self, record: StreamRecord) -> None:
        self.context.forward(
            record.with_kv(self._fn(record.key, record.value), record.value)
        )

    # -- columnar path --------------------------------------------------------

    def _batch_filter(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        keys, values = chunk.keys, chunk.values
        idx = [i for i in range(len(keys)) if fn(keys[i], values[i])]
        if not idx:
            return
        if len(idx) != len(keys):
            chunk = chunk.take(idx, self.context.stream_time)
        self.context.forward_chunk(chunk)

    def _batch_map(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        mapped = [fn(k, v) for k, v in zip(chunk.keys, chunk.values)]
        self.context.forward_chunk(
            ColumnChunk(
                [kv[0] for kv in mapped],
                [kv[1] for kv in mapped],
                chunk.timestamps,
                chunk.headers,
                chunk.stream_times,
            )
        )

    def _batch_map_values(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        self.context.forward_chunk(
            chunk.with_values([fn(v) for v in chunk.values])
        )

    def _batch_select_key(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        self.context.forward_chunk(
            ColumnChunk(
                list(map(fn, chunk.keys, chunk.values)),
                chunk.values,
                chunk.timestamps,
                chunk.headers,
                chunk.stream_times,
            )
        )


class ProcessorContext:
    """Per-node execution context: forwarding, stores, task metadata."""

    def __init__(
        self,
        task: "StreamTask",
        node_name: str,
        children: List[str],
        store_names: List[str],
    ) -> None:
        self._task = task
        self.node_name = node_name
        self._children = children
        self._store_names = set(store_names)
        # Stream time of the position Processor.process_batch's walk is
        # at; None outside the walk.
        self._position_time: Optional[float] = None
        # Records forwarded since the last drain, as five columns (the
        # fifth is stream time); None when nothing is pending.
        self._pending: Optional[tuple] = None

    # -- forwarding -----------------------------------------------------------

    def forward(self, record: StreamRecord) -> None:
        """Send ``record`` to every child node: it joins this node's output
        columns, which whoever called into the processor hands on as one
        chunk when the call returns (:meth:`drain`)."""
        columns = self._pending
        if columns is None:
            columns = self._pending = ([], [], [], [], [])
        columns[0].append(record.key)
        columns[1].append(record.value)
        columns[2].append(record.timestamp)
        columns[3].append(record.headers)
        columns[4].append(self.stream_time)

    def drain(self) -> None:
        """Pass on what :meth:`forward` collected as one chunk. Called by
        the runtime after every call into the processor that may forward
        (``process_batch``, ``on_commit``)."""
        columns = self._pending
        if columns is not None:
            self._pending = None
            self.forward_chunk(ColumnChunk(*columns))

    def forward_chunk(self, chunk: ColumnChunk) -> None:
        """Hand a whole chunk to every child node — a direct call, no
        network. Chunks are immutable between stages, so one chunk is
        forwarded to several children without copying."""
        for child in self._children:
            self._task.process_chunk_at(child, chunk)

    # -- state ------------------------------------------------------------------

    def state_store(self, name: str):
        if name not in self._store_names:
            raise StateStoreError(
                f"{self.node_name}: store {name!r} not connected to this node"
            )
        return self._task.state_store(name)

    # -- metadata -----------------------------------------------------------------

    @property
    def task_id(self):
        return self._task.task_id

    @property
    def stream_time(self) -> float:
        """Largest record timestamp observed by this task so far: up to
        the record being processed inside :meth:`Processor.process`, up to
        the last completed chunk anywhere else."""
        if self._position_time is not None:
            return self._position_time
        return self._task.stream_time

    @property
    def application_id(self) -> str:
        return self._task.application_id

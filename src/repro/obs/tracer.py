"""Structured tracing over virtual time.

A :class:`Tracer` collects *spans* (named intervals with a start and end in
virtual milliseconds) and *events* (instants) from every layer of the repro
stack: broker RPCs, two-phase-commit transitions, group rebalances, task
processing, changelog restores, chaos fault injections. Because the clock
is the deterministic :class:`~repro.sim.clock.SimClock`, two runs with the
same seed and config produce byte-identical traces — a trace is a replayable
artifact, not a best-effort sample.

Design constraints, in order:

* **Cheap when off.** Tracing is disabled by default. Every hot-path call
  site guards with ``if tracer.enabled:`` before building any arguments,
  so a disabled tracer costs one attribute check per record. Components
  cache the tracer reference at construction; toggling
  :attr:`Tracer.enabled` works at any time because the object identity
  never changes.
* **Deterministic.** Span/event identity comes from append order and the
  virtual clock — no wall time, no ``id()``, no randomness. Trace ids are
  drawn from a per-tracer counter.
* **Causal.** A *trace id* is assigned to each input record at first send
  (:const:`TRACE_ID_HEADER` in the record's headers) and propagated by the
  existing header plumbing through repartition topics, changelog appends,
  and sink outputs, so one input's full causal chain can be filtered out
  of the span log.

Tracks follow the Chrome trace-event model: every span names a ``pid``
(the process-like component: ``broker-0``, ``streams-app``, or
``txn-coordinator``) and a ``tid`` (the thread-like lane inside it: a
topic-partition, a task id, an RPC kind). The exporters in
:mod:`repro.obs.export` turn these into Perfetto-loadable tracks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a sim<->obs import cycle
    from repro.sim.clock import SimClock

# Header key carrying the trace id through record hops (produce →
# repartition → changelog → sink). Double-underscore prefixed like the
# stage stamps so it never collides with user headers.
TRACE_ID_HEADER = "__trace_id"


class Span:
    """One named interval (or instant) on a (pid, tid) track."""

    __slots__ = ("name", "category", "pid", "tid", "start_ms", "end_ms", "args")

    def __init__(
        self,
        name: str,
        category: str,
        pid: str,
        tid: str,
        start_ms: float,
        end_ms: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.pid = pid
        self.tid = tid
        self.start_ms = start_ms
        self.end_ms = end_ms            # None while open; == start for instants
        self.args = args or {}

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def is_instant(self) -> bool:
        return self.end_ms is not None and self.end_ms == self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form used by the JSONL exporter (stable keys)."""
        return {
            "name": self.name,
            "cat": self.category,
            "pid": self.pid,
            "tid": self.tid,
            "ts": self.start_ms,
            "dur": self.duration_ms,
            "ph": "i" if self.is_instant else "X",
            "args": self.args,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.pid}/{self.tid}, "
            f"{self.start_ms}..{self.end_ms})"
        )


class _SpanHandle:
    """Context manager closing a span; also usable via explicit end()."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span

    def add(self, **args: Any) -> None:
        """Attach extra args to the span (e.g. a result count at the end)."""
        if self._span is not None:
            self._span.args.update(args)

    def end(self) -> None:
        if self._span is not None and self._span.end_ms is None:
            self._span.end_ms = self._tracer.now()

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end()


class Tracer:
    """Collects spans/events stamped with SimClock time.

    ``enabled`` gates *recording*; call sites additionally guard with
    ``if tracer.enabled:`` so disabled tracing costs one attribute check.
    """

    def __init__(self, clock: Optional["SimClock"] = None, enabled: bool = False):
        self.clock = clock
        self.enabled = enabled
        self.spans: List[Span] = []     # append order = start order
        self._next_trace_id = 0

    # -- time -------------------------------------------------------------------------

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- trace ids -------------------------------------------------------------------

    def new_trace_id(self) -> str:
        """Deterministic, monotonically assigned trace id."""
        self._next_trace_id += 1
        return f"t{self._next_trace_id:06d}"

    # -- recording -------------------------------------------------------------------

    def begin(
        self, name: str, pid: str, tid: str, category: str = "", **args: Any
    ) -> _SpanHandle:
        """Open a span; close it via the returned handle (or ``with``)."""
        if not self.enabled:
            return _NOOP_HANDLE
        span = Span(name, category, pid, tid, self.now(), args=args or {})
        self.spans.append(span)
        return _SpanHandle(self, span)

    # `span` is the idiomatic with-statement spelling of `begin`.
    span = begin

    def event(
        self, name: str, pid: str, tid: str, category: str = "", **args: Any
    ) -> None:
        """Record an instant event."""
        if not self.enabled:
            return
        now = self.now()
        self.spans.append(Span(name, category, pid, tid, now, now, args or {}))

    # -- views -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)



class _NoopHandle:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()

    def add(self, **args: Any) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NOOP_HANDLE = _NoopHandle()

# Shared disabled tracer for components constructed without a cluster
# (standalone Driver/Network instances in unit tests). Never enable it —
# it has no clock, so everything would stamp at t=0.
NOOP_TRACER = Tracer(clock=None, enabled=False)

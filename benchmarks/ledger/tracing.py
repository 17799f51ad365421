"""Benchmark-side layer trace.

The program under test is not edited: :func:`install` replaces the public
entry points of each layer (class attributes, looked up by name so a
method a later change removes is simply skipped) with wrappers that open
a span in a :class:`Recorder`. It must run before the objects of a
repetition are built and is undone by :func:`uninstall`.

Spans nest on one stack (the benchmark is single-threaded), so a span's
*self* time is its duration minus the time its children covered. Spans on
per-record boundaries would be millions of objects, so every span is
folded into ``name -> [calls, total_ns, self_ns]`` in place; only the
coarse ones (generator slice, scheduler cycle, instance poll/commit,
restore) are also kept individually for the Chrome trace.

Span times use ``perf_counter_ns`` (~100 ns a read here;
``process_time_ns`` is a ~400 ns system call, four reads per record
would distort the proportions it is meant to show). The process has one
thread, so the two clocks differ only by time the host took away.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

ROOT = "timed_region"


class Recorder:
    """In-memory span aggregates, counters and the coarse span list."""

    def __init__(self) -> None:
        self.agg: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.events: List[Tuple[str, int, int, int]] = []
        self.producers: List[Any] = []
        self._stack: List[List[int]] = []
        self._rpc_depth = 0

    def reset(self) -> None:
        """Forget what set-up recorded (in place: the installed wrappers
        hold references to the aggregate rows and the span list)."""
        for entry in self.agg.values():
            entry[:] = [0, 0, 0]
        self.counts.clear()
        self.events.clear()

    def _entry(self, name: str) -> List[int]:
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0]
        return entry

    @contextmanager
    def span(self, name: str):
        """A coarse span opened by the benchmark's own code."""
        entry = self._entry(name)
        stack = self._stack
        frame = [_now(), 0]
        stack.append(frame)
        try:
            yield
        finally:
            end = _now()
            stack.pop()
            duration = end - frame[0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.events.append((name, frame[0], duration, len(stack)))

    # -- reading -------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.agg[n][0] for n in names if n in self.agg)

    def self_s(self, *names: str) -> float:
        return sum(self.agg[n][2] for n in names if n in self.agg) / 1e9

    def total_s(self, name: str) -> float:
        return self.agg[name][1] / 1e9 if name in self.agg else 0.0

    def write_chrome_trace(self, path: str) -> None:
        """Coarse spans as Chrome trace-event JSON (chrome://tracing,
        Perfetto). One lane per nesting depth; times in microseconds from
        the first span."""
        origin = min((e[1] for e in self.events), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": depth,
                "ts": (start - origin) / 1000.0,
                "dur": duration / 1000.0,
            }
            for name, start, duration, depth in self.events
        ]
        aggregates = {
            name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for name, (c, t, s) in sorted(self.agg.items())
        }
        with open(path, "w") as f:
            json.dump(
                {"traceEvents": events, "aggregates": aggregates,
                 "counts": dict(sorted(self.counts.items()))},
                f,
            )
            f.write("\n")


class NullRecorder:
    """Stands in for a Recorder in untraced repetitions."""

    _no_span = nullcontext()

    def span(self, name: str):
        return self._no_span


NULL = NullRecorder()

PostHook = Callable[[Recorder, tuple, dict, Any], None]


def _wrap(
    rec: Recorder,
    original: Callable,
    name: str,
    coarse: bool = False,
    post: Optional[PostHook] = None,
) -> Callable:
    entry = rec._entry(name)
    stack = rec._stack
    events = rec.events

    def wrapper(*args, **kwargs):
        frame = [_now(), 0]
        stack.append(frame)
        try:
            result = original(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - frame[0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if coarse:
                events.append((name, frame[0], duration, len(stack)))
        if post is not None:
            post(rec, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


# -- count hooks (ratios are measured where the work happens) -----------------


def _post_log_read(rec, args, kwargs, result) -> None:
    rec.counts["log.scanned"] += len(result)


def _post_log_read_columnar(rec, args, kwargs, result) -> None:
    rec.counts["log.scanned"] += len(result.backing)


def _post_fetch(rec, args, kwargs, result) -> None:
    returned = len(result.records)
    rec.counts["broker.fetch.returned"] += returned
    if not returned:
        rec.counts["broker.fetch.empty"] += 1


def _post_fetch_columnar(rec, args, kwargs, result) -> None:
    returned = result.valid_count
    rec.counts["broker.fetch.returned"] += returned
    if not returned:
        rec.counts["broker.fetch.empty"] += 1


def _post_poll(rec, args, kwargs, result) -> None:
    if not result:
        rec.counts["consumer.empty_polls"] += 1


def _post_cycle(rec, args, kwargs, result) -> None:
    rec.counts["driver.cycles"] += 1
    if not result:
        rec.counts["driver.idle_cycles"] += 1


def _wrap_network_call(rec: Recorder, original: Callable) -> Callable:
    """Network.call, plus the virtual milliseconds that pass inside
    outermost RPCs (a nested RPC's time is already inside its parent's)."""
    spanned = _wrap(rec, original, "sim.network")
    counts = rec.counts

    def call(self, *args, **kwargs):
        if rec._rpc_depth:
            return spanned(self, *args, **kwargs)
        rec._rpc_depth = 1
        started = self.clock.now
        try:
            return spanned(self, *args, **kwargs)
        finally:
            rec._rpc_depth = 0
            counts["network.charged_ms"] += self.clock.now - started

    call.__wrapped__ = original
    return call


def _wrap_producer_init(rec: Recorder, original: Callable) -> Callable:
    """Remember every Producer built, for its records/batches/retries
    counters; not a span."""

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        rec.producers.append(self)

    __init__.__wrapped__ = original
    return __init__


def _targets() -> List[Tuple[Any, str, str, bool, Optional[PostHook]]]:
    """(owner, attribute, span name, coarse, post hook) for every layer
    boundary. Imported here so that importing this module touches nothing."""
    from repro.broker.cluster import Cluster
    from repro.broker.group_coordinator import GroupCoordinator
    from repro.broker.partition import PartitionState
    from repro.broker.txn_coordinator import TransactionCoordinator
    from repro.clients.consumer import Consumer
    from repro.clients.producer import Producer
    from repro.log.partition_log import PartitionLog
    from repro.sim.scheduler import Driver
    from repro.streams.runtime import task as task_module
    from repro.streams.runtime.instance import StreamsInstance
    from repro.streams.runtime.task import StreamTask
    from repro.streams.state.kv_store import InMemoryKeyValueStore
    from repro.streams.state.window_store import InMemoryWindowStore

    targets: List[Tuple[Any, str, str, bool, Optional[PostHook]]] = [
        (PartitionLog, "append_batch", "log.append", False, None),
        (PartitionLog, "append_marker", "log.append", False, None),
        (PartitionLog, "read", "log.read", False, _post_log_read),
        (PartitionLog, "read_columnar", "log.read", False, _post_log_read_columnar),
        (Cluster, "handle_produce", "broker.produce", False, None),
        (Cluster, "handle_fetch", "broker.fetch", False, _post_fetch),
        (Cluster, "handle_fetch_columnar", "broker.fetch", False, _post_fetch_columnar),
        (Cluster, "handle_fetch_replica", "broker.replica_fetch", False, None),
        # The follower fetch round runs inside the leader append here, not
        # as an RPC of its own; this is where replication time is spent.
        (PartitionState, "replicate", "broker.replica_fetch", False, None),
        # Marker appends are issued by the coordinator from clock timers.
        (PartitionState, "append_marker", "broker.txn", False, None),
        (Driver, "poll_all", "sim.driver", True, _post_cycle),
        (Driver, "flush_all", "sim.driver", True, None),
        (Producer, "send", "clients.producer.send", False, None),
        (Producer, "send_columns", "clients.producer.send", False, None),
        (Producer, "flush", "clients.producer.flush", False, None),
        (Consumer, "poll", "clients.consumer.poll", False, _post_poll),
        (Consumer, "poll_batches", "clients.consumer.poll", False, _post_poll),
        (Consumer, "commit_sync", "clients.consumer.commit", False, None),
        (StreamsInstance, "step", "runtime.poll", True, None),
        (StreamsInstance, "commit", "runtime.commit", True, None),
        (StreamTask, "process_batch", "runtime.process", False, None),
        (StreamTask, "process_next_chunk", "runtime.process", False, None),
        (StreamTask, "restore_step", "runtime.restore", True, None),
        # Unthrottled restores replay inside task construction, through the
        # function the task module imported.
        (task_module, "restore_store", "runtime.restore", True, None),
        (InMemoryKeyValueStore, "put", "app.state.put", False, None),
        (InMemoryKeyValueStore, "put_many", "app.state.put", False, None),
        (InMemoryKeyValueStore, "get", "app.state.get", False, None),
        (InMemoryWindowStore, "put", "app.state.put", False, None),
        (InMemoryWindowStore, "fetch", "app.state.get", False, None),
    ]
    for attr in ("init_transactions", "begin_transaction", "commit_transaction",
                 "abort_transaction", "send_offsets_to_transaction"):
        targets.append((Producer, attr, "clients.producer.txn", False, None))
    for owner, span in ((TransactionCoordinator, "broker.txn"),
                        (GroupCoordinator, "broker.group")):
        for attr, value in vars(owner).items():
            if callable(value) and not attr.startswith("_"):
                targets.append((owner, attr, span, False, None))
    return targets


Undo = List[Tuple[Any, str, Any]]


def install(rec: Recorder) -> Undo:
    """Patch every layer boundary that exists; returns what to restore."""
    from repro.sim.network import Network

    undo: Undo = []
    for owner, attr, name, coarse, post in _targets():
        original = vars(owner).get(attr)
        if original is None or not callable(original):
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, original, name, coarse, post))
    from repro.clients.producer import Producer

    undo.append((Network, "call", Network.call))
    Network.call = _wrap_network_call(rec, Network.call)
    undo.append((Producer, "__init__", Producer.__init__))
    Producer.__init__ = _wrap_producer_init(rec, Producer.__init__)
    return undo


def uninstall(undo: Undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

"""The suppress operator: consolidate intermediate revisions.

Section 5 closes with the observation that emitting *every* revision
downstream costs network and CPU in retract/accumulate pairs that offset
each other. ``suppress`` buffers a table's Changes and emits per key:

* ``Suppressed.until_window_closes()`` — only the final result, once the
  window's grace period has elapsed in stream time (requires a windowed
  table);
* ``Suppressed.until_time_limit(ms)`` — at most one consolidated Change
  per key per time limit (flushed on commit as well).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import Any, Dict, List, Tuple

from repro.streams.aggregates import _CHANGE
from repro.streams.processor import Processor
from repro.streams.records import ColumnChunk, StreamRecord
from repro.streams.windows import Windowed

UNTIL_WINDOW_CLOSES = "until_window_closes"
UNTIL_TIME_LIMIT = "until_time_limit"


@dataclass(frozen=True)
class Suppressed:
    """Suppression policy configuration."""

    mode: str
    time_limit_ms: float = 0.0

    @classmethod
    def until_window_closes(cls) -> "Suppressed":
        return cls(mode=UNTIL_WINDOW_CLOSES)

    @classmethod
    def until_time_limit(cls, time_limit_ms: float) -> "Suppressed":
        if time_limit_ms < 0:
            raise ValueError("time limit must be >= 0")
        return cls(mode=UNTIL_TIME_LIMIT, time_limit_ms=time_limit_ms)


class SuppressProcessor(Processor):
    """Buffers Changes per key and emits consolidated results.

    The consolidated Change spans from the value before the first buffered
    update to the latest one, so downstream retractions remain exact.

    One emission rule serves both execution modes: a buffered key is due
    once ``stream_time - due >= wait``, where ``due`` is the window's close
    time (end + grace, ``wait`` 0) or the time the key was first buffered
    (``wait`` = the time limit). A heap on ``due`` makes the check O(1)
    per record when nothing is due; keys that fall due on the same record
    are emitted in buffer-insertion order.
    """

    def __init__(self, suppressed: Suppressed, grace_ms: float = 0.0) -> None:
        self._grace_ms = grace_ms
        self._final = suppressed.mode == UNTIL_WINDOW_CLOSES
        self._wait = 0.0 if self._final else suppressed.time_limit_ms
        # key -> [latest_new, pre-run old, latest ts, first buffered at,
        # the latest revision's headers — the frozen object itself, shared];
        # a revision rewrites slots 0, 2 and 4 in place.
        self._buffer: Dict[Any, List[Any]] = {}
        # (due, insertion number, key) for exactly the buffered keys.
        self._index: List[Tuple[float, int, Any]] = []
        self._inserted = 0
        self.records_suppressed = 0
        self.records_emitted = 0

    def process(self, record: StreamRecord) -> None:
        self._forward_records(
            self._absorb(
                (record.key,), (record.value,), (record.timestamp,),
                (record.headers,), (self.context.stream_time,),
            )
        )

    def process_batch(self, chunk: ColumnChunk) -> None:
        out = self._absorb(
            chunk.keys, chunk.values, chunk.timestamps, chunk.headers,
            chunk.stream_times_from(self.context.stream_time),
        )
        if out[0]:
            self.context.forward_chunk(ColumnChunk(*out))

    def _absorb(self, keys, values, timestamps, headers, stream_times) -> tuple:
        """Buffer each Change, then emit whatever is due at the stream time
        its record was processed at. Returns the emissions as five columns
        (keys, Changes, timestamps, headers, stream times)."""
        buffer = self._buffer
        buffer_get = buffer.get
        index = self._index
        wait = self._wait
        final = self._final
        grace = self._grace_ms
        inserted = self._inserted
        suppressed = 0
        # index[0][0] whenever the index is not empty.
        head = index[0][0] if index else inf
        out: tuple = ([], [], [], [], [])
        for key, change, timestamp, h, stream_time in zip(
            keys, values, timestamps, headers, stream_times
        ):
            pending = buffer_get(key)
            if pending is None:
                if not final:
                    due = timestamp
                elif isinstance(key, Windowed):
                    due = key.window.end + grace
                else:
                    raise TypeError(
                        "until_window_closes requires windowed keys; got "
                        f"{type(key).__name__}"
                    )
                buffer[key] = [change.new, change.old, timestamp, timestamp, h]
                heappush(index, (due, inserted, key))
                inserted += 1
                if due < head:
                    head = due
            else:
                # A revision: the entry keeps its pre-run old value and
                # first-buffered time, and is updated where it lies.
                suppressed += 1
                pending[0] = change.new
                pending[2] = timestamp
                pending[4] = h
            if stream_time - head >= wait:
                self._emit_due(stream_time, out)
                head = index[0][0] if index else inf
        self._inserted = inserted
        self.records_suppressed += suppressed
        return out

    def _emit_due(self, stream_time: float, out: tuple) -> None:
        index = self._index
        wait = self._wait
        due = []
        while index and stream_time - index[0][0] >= wait:
            due.append(heappop(index)[1:])
        due.sort()   # by insertion number: the buffer's own order
        pop = self._buffer.pop
        out_k, out_v, out_t, out_h, out_st = out
        emitted = len(out_k)
        for _, key in due:
            new, old, ts, _first, headers = pop(key)
            if new is None and old is None:
                continue
            out_k.append(key)
            out_v.append(_CHANGE((new, old)))
            out_t.append(ts)
            out_h.append(headers)
            out_st.append(stream_time)
        self.records_emitted += len(out_k) - emitted

    def _forward_records(self, out: tuple) -> None:
        for key, change, ts, headers, _ in zip(*out):
            self.context.forward(
                StreamRecord(key=key, value=change, timestamp=ts, headers=headers)
            )

    def on_commit(self) -> None:
        """Commit flush: time-limited buffers drain (their consolidation
        window is the commit interval); final-mode buffers keep waiting for
        the window to close."""
        if not self._final and self._buffer:
            out: tuple = ([], [], [], [], [])
            self._emit_due(float("inf"), out)
            self._forward_records(out)

    def close(self) -> None:
        self._buffer.clear()
        self._index.clear()

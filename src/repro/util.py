"""Small shared utilities."""

from __future__ import annotations

import zlib
from typing import Any, Callable


def stable_hash(value: Any) -> int:
    """Deterministic non-negative hash, stable across interpreter runs.

    Python's built-in ``hash`` is randomised for strings; partitioners and
    coordinator-partition routing must be reproducible, so everything in the
    repro stack hashes through this function instead.
    """
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode("utf-8")
    elif isinstance(value, int):
        data = str(value).encode("ascii")
    else:
        data = repr(value).encode("utf-8")
    return zlib.crc32(data) & 0x7FFFFFFF


def partition_for(key: Any, num_partitions: int) -> int:
    """Default key-based partitioner (stable hash modulo partition count)."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if key is None:
        return 0
    return stable_hash(key) % num_partitions


# -- remembering where a key goes ------------------------------------------------
#
# Keys repeat under any keyed workload, so the producer and the Streams sink
# remember each key's partition rather than hash it again. A dict answers by
# equality, and equal keys are not always one key to the partitioner:
# ``1 == True == 1.0`` hash alike yet land on three partitions, and a
# subclass may redefine ``__eq__`` / ``__hash__`` / ``__repr__``. So a memo
# is consulted only for keys whose ``type()`` is exactly one of
# MEMO_KEY_TYPES — between those, equal means identical to ``partition_for``
# — and holds at most MEMO_MAX_KEYS keys, so that keys used once (one per
# emitted window, say) cannot grow it without bound. A memo belongs to one
# topic, whose partition count is fixed when it is created. It lives on the Cluster (``Cluster.route_of``: one per topic, shared by
# every producer and Streams sink on that cluster) and never outlives it:
# no memo is module-level, so no hit carries from one cluster to the next.

#: The exact key types a key -> partition memo may hold.
MEMO_KEY_TYPES = frozenset((str, int, bytes))

#: The most keys one memo holds; a miss past it starts the memo over.
MEMO_MAX_KEYS = 1 << 16


class RouteMemo(dict):
    """``memo[key]`` is ``route(key)``, computed on a key's first lookup
    and remembered: a hit is one C-level dict lookup. Index it only with
    keys whose ``type()`` is in :data:`MEMO_KEY_TYPES`."""

    __slots__ = ("route",)

    def __init__(self, route: Callable[[Any], Any]) -> None:
        super().__init__()
        self.route = route

    def __missing__(self, key: Any) -> Any:
        value = self.route(key)
        if len(self) >= MEMO_MAX_KEYS:
            self.clear()
        self[key] = value
        return value


class ExponentialBackoff:
    """Capped exponential backoff schedule.

    The retry idiom every Kafka client RPC uses: delays start at
    ``initial_ms`` and double per attempt up to ``max_ms``. The schedule is
    pure bookkeeping — callers decide how to spend the delay (advance the
    virtual clock, or just account it as modelled latency), so the same
    helper serves the producer's coordinator RPCs and the interactive-query
    router's re-route loop.
    """

    def __init__(
        self, initial_ms: float, max_ms: float, factor: float = 2.0
    ) -> None:
        if initial_ms <= 0:
            raise ValueError("initial_ms must be > 0")
        if max_ms < initial_ms:
            raise ValueError("max_ms must be >= initial_ms")
        if factor < 1.0:
            raise ValueError("factor must be >= 1.0")
        self.initial_ms = initial_ms
        self.max_ms = max_ms
        self.factor = factor
        self._next = initial_ms
        self.attempts = 0

    def next_delay_ms(self) -> float:
        """The delay to wait before the next retry; grows the schedule."""
        delay = self._next
        self._next = min(self._next * self.factor, self.max_ms)
        self.attempts += 1
        return delay

    def reset(self) -> None:
        self._next = self.initial_ms
        self.attempts = 0

"""Time windows, windowed keys, and grace periods.

The per-operator *grace period* (Section 5) bounds how late an
out-of-order record may be and still revise a window's result. It controls
how much old state is retained for revisions — it does **not** delay
emission: results are emitted speculatively as soon as they change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

DEFAULT_GRACE_MS = 24 * 3600 * 1000.0


@dataclass(frozen=True)
class Window:
    """A half-open time interval [start, end).

    Hashed once, at construction (see :class:`Windowed`).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"window end {self.end} must exceed start {self.start}")
        object.__setattr__(self, "_hash", hash((self.start, self.end)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Window, (self.start, self.end)

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end

    def __repr__(self) -> str:
        return f"[{self.start}, {self.end})"


@dataclass(frozen=True)
class Windowed:
    """A record key qualified by the window it belongs to.

    Windowed aggregate results are keyed by (original key, window), as in
    Figure 6 where results are "indexed by the window start time".

    A result key is built once per live window and then hashed by every
    store, suppression-buffer and heap operation on it, so the hash is
    computed where the key is built and ``__hash__`` hands it back. The
    cached value is not a field (``==``, ``repr`` and ``fields()`` do not
    see it) and never travels: copies and pickles rebuild through the
    constructor, because a ``str`` key hashes differently in another
    process. The wrapped key must therefore be hashable at construction.
    """

    key: Any
    window: Window

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.key, self.window)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Windowed, (self.key, self.window)

    def __repr__(self) -> str:
        return f"Windowed({self.key!r}, {self.window})"


@dataclass(frozen=True)
class TimeWindows:
    """Fixed-size tumbling or hopping windows.

    ``TimeWindows.of(5000)`` gives 5-second tumbling windows, as in the
    paper's Figure 2 example; ``advance_by`` smaller than ``size_ms`` makes
    them hopping (overlapping).
    """

    size_ms: float
    advance_ms: float
    grace_ms: float = DEFAULT_GRACE_MS

    @classmethod
    def of(cls, size_ms: float) -> "TimeWindows":
        if size_ms <= 0:
            raise ValueError("window size must be positive")
        return cls(size_ms=size_ms, advance_ms=size_ms)

    def advance_by(self, advance_ms: float) -> "TimeWindows":
        if not 0 < advance_ms <= self.size_ms:
            raise ValueError("advance must be in (0, size]")
        return TimeWindows(self.size_ms, advance_ms, self.grace_ms)

    def grace(self, grace_ms: float) -> "TimeWindows":
        if grace_ms < 0:
            raise ValueError("grace must be >= 0")
        return TimeWindows(self.size_ms, self.advance_ms, grace_ms)

    def windows_for(self, timestamp: float) -> List[Window]:
        """Every window the record at ``timestamp`` falls into."""
        if timestamp < 0:
            raise ValueError("timestamps must be non-negative")
        windows = []
        first_start = (
            (timestamp // self.advance_ms) * self.advance_ms
        )
        start = first_start
        while start + self.size_ms > timestamp:
            if start >= 0:
                windows.append(Window(start, start + self.size_ms))
            start -= self.advance_ms
        windows.reverse()
        return windows

    @property
    def retention_ms(self) -> float:
        """How long window state is retained: size + grace."""
        return self.size_ms + self.grace_ms

"""Reference computations the benchmark checks outputs against.

Every function returns a :class:`Check`: how many results the reference
expects and how many of them are missing, wrong, duplicated or
unexpected. ``failed == 0`` is the only passing value; ``run.py
--selfcheck`` shows each checker returning ``failed > 0`` on a planted
defect, so a zero is evidence and not silence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.sim.invariants import Invariant, committed_records


@dataclass
class Check:
    expected: int
    failed: int
    detail: str = ""

    @property
    def failed_share(self) -> float:
        return self.failed / self.expected if self.expected else 1.0


Row = Tuple[int, Any, Any]  # (partition, key, value)


def committed_rows(cluster, topic: str) -> List[Row]:
    """The read-committed contents of ``topic``, partition by partition in
    offset order (the repo's own canonical form for golden comparisons;
    reads the leader logs, so it moves no clock and counts no RPC)."""
    return committed_records(cluster, [topic])[topic]


def input_records(cluster, topic: str) -> List[Any]:
    """The records the generator appended to ``topic``, partition by
    partition in offset order (plain producers write no markers)."""
    records: List[Any] = []
    for tp in cluster.partitions_for(topic):
        records.extend(
            r for r in cluster.partition_state(tp).leader_log().records()
            if not r.is_control
        )
    return records


def _sequence_failures(expected: List[Any], observed: List[Any]) -> int:
    if expected == observed:
        return 0
    want, got = Counter(expected), Counter(observed)
    missing = sum((want - got).values())
    surplus = sum((got - want).values())       # duplicated or unexpected
    if missing or surplus:
        return missing + surplus
    return sum(1 for a, b in zip(expected, observed) if a != b)  # reordered


def check_fold(
    inputs: Iterable[Any],
    outputs: Iterable[Row],
    fold: Callable[[Any, Any], Any],
) -> Check:
    """A keyed reduce emits, per key, exactly the running fold of that
    key's input values, in input order."""
    expected: Dict[Any, List[Any]] = {}
    for record in inputs:
        sequence = expected.setdefault(record.key, [])
        sequence.append(
            fold(sequence[-1], record.value) if sequence else record.value
        )
    observed: Dict[Any, List[Any]] = {}
    for _, key, value in outputs:
        observed.setdefault(key, []).append(value)
    failed = 0
    for key in expected.keys() | observed.keys():
        failed += _sequence_failures(expected.get(key, []), observed.get(key, []))
    total = sum(len(s) for s in expected.values())
    return Check(total, failed, f"{len(expected)} keys")


def check_multiset(golden: List[Row], actual: List[Row]) -> Check:
    """Committed output under faults equals the fault-free output as a
    multiset of (partition, key, value): nothing lost, nothing twice."""
    want, got = Counter(golden), Counter(actual)
    missing = sum((want - got).values())
    surplus = sum((got - want).values())
    return Check(len(golden), missing + surplus,
                 f"missing {missing}, duplicated/unexpected {surplus}")


def check_final_windows(
    offline: Dict[Tuple[Any, float], int],
    outputs: Iterable[Row],
    late_dropped: int,
) -> Check:
    """Suppressed windowed counts, after every window has closed: each
    (key, window) is reported at most once, never above the offline count,
    and the shortfalls add up to exactly the records the operator counted
    as dropped for lateness (a window all of whose records were dropped
    reports nothing)."""
    seen: Dict[Tuple[Any, float], int] = {}
    failed = 0
    for _, key, value in outputs:
        cell = (key.key, key.window.start)
        if cell in seen:
            failed += 1                       # duplicated final result
            continue
        seen[cell] = value
        want = offline.get(cell)
        if want is None or value > want or value <= 0:
            failed += 1                       # unexpected or wrong
    shortfall = sum(
        want - seen.get(cell, 0) for cell, want in offline.items()
        if seen.get(cell, 0) <= want
    )
    if shortfall != late_dropped:
        failed += abs(shortfall - late_dropped)   # missing, unexplained
    return Check(len(offline), failed,
                 f"{len(seen)} results, shortfall {shortfall}, dropped {late_dropped}")


def check_read_set(
    committed: Iterable[Any], aborted: Iterable[Any], seen: Iterable[Any]
) -> Check:
    """A read-committed reader sees every committed value once and no
    aborted value."""
    want = Counter(committed)
    got = Counter(seen)
    aborted_set = set(aborted)
    missing = sum((want - got).values())
    surplus = sum((got - want).values())
    visible_aborted = sum(n for value, n in got.items() if value in aborted_set)
    return Check(sum(want.values()), missing + surplus,
                 f"missing {missing}, surplus {surplus} "
                 f"(aborted visible {visible_aborted})")


class GoldenOutput(Invariant):
    """Convergence test for the failover harness: the committed output
    topic holds exactly the fault-free rows. Cheap on the common path (a
    length comparison) because the harness evaluates it every round."""

    name = "ledger-golden-output"
    final_only = True

    def __init__(self, topic: str, golden: List[Row]) -> None:
        self.topic = topic
        self.golden = golden
        self._golden_counts = Counter(golden)

    def check(self, cluster, final: bool = False) -> None:
        if not final:
            return
        actual = committed_rows(cluster, self.topic)
        if len(actual) != len(self.golden):
            self._fail(f"{len(actual)} committed rows vs {len(self.golden)} golden")
        if Counter(actual) != self._golden_counts:
            self._fail("committed rows differ from the fault-free run")

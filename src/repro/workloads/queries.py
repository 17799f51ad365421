"""Read-heavy interactive-query workloads.

A :class:`QueryWorkload` is a Driver actor that fires pull queries against
one store at a configured rate with a Zipfian key distribution — the
read-side twin of :class:`~repro.workloads.generator.WorkloadGenerator`.
Queries ride along with stream processing without perturbing it: the
router models latency arithmetically instead of advancing the virtual
clock, so a simulation with a million queries per simulated second commits
the exact same records as one with none.

Every outcome is tallied (`served` / `shed` / per-error-class counts) and
per-query modelled latency lands in the shared ``iq_query_latency_ms``
histogram, which is what the availability benchmark reads during rolling
restarts.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.app import KafkaStreams


def zipfian_cdf(key_space: int, exponent: float = 1.1) -> List[float]:
    """Cumulative distribution of a Zipf law over ``key_space`` ranks."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(key_space)]
    total = sum(weights)
    cdf: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


class QueryWorkload:
    """Issues pull queries at ``rate_per_sec`` with Zipfian-skewed keys."""

    def __init__(
        self,
        app: "KafkaStreams",
        store: str,
        rate_per_sec: float = 1_000_000.0,
        key_space: int = 100,
        key_prefix: str = "key",
        zipf_exponent: float = 1.1,
        consistency: Optional[str] = None,
        max_staleness: float = float("inf"),
        windowed: bool = False,
        max_queries_per_poll: int = 512,
        seed: int = 42,
    ) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be > 0")
        from repro.iq.server import BOUNDED

        self.app = app
        self.store = store
        self.rate_per_sec = rate_per_sec
        self.consistency = consistency or BOUNDED
        self.max_staleness = max_staleness
        self.windowed = windowed
        self.max_queries_per_poll = max_queries_per_poll
        self.router = app.query_router()
        self.rng = random.Random(seed)
        self._keys = [f"{key_prefix}-{i}" for i in range(key_space)]
        self._cdf = zipfian_cdf(key_space, zipf_exponent)
        self._last_poll_ms = app.cluster.clock.now
        self._backlog = 0.0
        # Outcome tallies (also mirrored into cluster metrics counters).
        self.served = 0
        self.shed = 0
        self.errors: Dict[str, int] = {}
        self.staleness_seen = 0.0
        metrics = app.cluster.metrics
        self._served_counter = metrics.counter("iq.workload.served")
        self._shed_counter = metrics.counter("iq.workload.shed")
        self._error_counter = metrics.counter("iq.workload.errors")

    def next_key(self) -> str:
        """Zipfian draw: rank r with probability ∝ 1/(r+1)^s."""
        return self._keys[bisect_left(self._cdf, self.rng.random())]

    def query_once(self) -> bool:
        """Fire one pull query; True when it was served."""
        try:
            if self.windowed:
                result = self.router.window_fetch(
                    self.store,
                    self.next_key(),
                    consistency=self.consistency,
                    max_staleness=self.max_staleness,
                )
            else:
                result = self.router.get(
                    self.store,
                    self.next_key(),
                    consistency=self.consistency,
                    max_staleness=self.max_staleness,
                )
        except QueryError as exc:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self._error_counter.increment()
            return False
        self.served += 1
        self._served_counter.increment()
        self.staleness_seen = max(self.staleness_seen, result.staleness)
        return True

    def run_burst(self, count: int) -> int:
        """Fire ``count`` queries back to back; returns how many served."""
        return sum(1 for _ in range(count) if self.query_once())

    # -- actor protocol (repro.sim.scheduler.Driver) ---------------------------

    def poll(self) -> int:
        """Issue the queries due since the last poll, up to the per-poll
        cap; the excess is *shed* (counted, not queued — at 10^6 q/s a
        backlog would otherwise grow without bound whenever processing
        pauses the driver). Returns 0: queries are observers and must not
        keep an otherwise-idle driver spinning."""
        now = self.app.cluster.clock.now
        elapsed_ms = now - self._last_poll_ms
        self._last_poll_ms = now
        self._backlog += elapsed_ms * self.rate_per_sec / 1000.0
        due = int(self._backlog)
        if due <= 0:
            return 0
        issue = min(due, self.max_queries_per_poll)
        dropped = due - issue
        if dropped:
            self.shed += dropped
            self._shed_counter.increment(dropped)
        self._backlog -= due
        for _ in range(issue):
            self.query_once()
        return 0

    def flush(self) -> None:
        return None

"""QueryRouter: the client-side half of interactive queries.

Routes each query to the owning instance (or an acceptable standby) using
:class:`~repro.iq.metadata.MetadataService`, retries retriable rejections
with capped-exponential backoff, and scatter-gathers range scans across
every partition of a store.

Latency is *modelled*, not simulated: queries are answered off the stream
threads (a real deployment serves them from a REST handler pool), so the
router never advances the cluster clock — it accumulates the per-hop and
backoff costs arithmetically and reports them through the
``iq_query_latency_ms`` histogram. Processing therefore proceeds
identically with or without a query workload riding along, which keeps the
chaos matrix deterministic. The one exception is the strong path: catching
a committed shadow up replays changelog records, and that replay charges
restore latency like any other restore.

Retry policy mirrors the producer's coordinator client: on
``NotOwnedError`` the carried hint becomes the fresh metadata, on
``StaleEpochError`` metadata is re-fetched, on ``StaleStoreError`` the next
candidate is tried; between full candidate sweeps the router sleeps a
capped-exponential backoff (modelled), and after ``max_attempts`` sweeps it
surfaces ``QueryUnavailableError``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    NotOwnedError,
    QueryError,
    QueryUnavailableError,
    StaleEpochError,
    StaleStoreError,
)
from repro.iq.server import BOUNDED, QueryResult, STRONG
from repro.util import ExponentialBackoff

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.app import KafkaStreams


class QueryRouter:
    """Fans interactive queries out to the instances that can serve them."""

    def __init__(
        self,
        app: "KafkaStreams",
        max_attempts: int = 8,
        retry_backoff_ms: float = 2.0,
        retry_backoff_max_ms: float = 64.0,
    ) -> None:
        self.app = app
        self.cluster = app.cluster
        self.metadata = app.metadata_service
        self.max_attempts = max_attempts
        self.retry_backoff_ms = retry_backoff_ms
        self.retry_backoff_max_ms = retry_backoff_max_ms
        metrics = self.cluster.metrics
        self._latency = metrics.histogram("iq_query_latency_ms")
        self._freshness = metrics.gauge("freshness_lag")
        self._queries = metrics.counter("iq.queries")
        self._retries = metrics.counter("iq.retries")
        self._failures = metrics.counter("iq.failures")

    # -- public query surface --------------------------------------------------

    def get(
        self,
        store: str,
        key: Any,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
    ) -> QueryResult:
        partition = self.metadata.partition_for_key(store, key)
        result, cost = self._query_partition(
            store,
            partition,
            consistency,
            lambda server, epoch: server.get(
                store,
                key,
                partition,
                consistency=consistency,
                max_staleness=max_staleness,
                epoch=epoch,
            ),
        )
        self._observe(cost, result.staleness)
        return result

    def window_fetch(
        self,
        store: str,
        key: Any,
        from_start: Optional[float] = None,
        to_start: Optional[float] = None,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
    ) -> QueryResult:
        partition = self.metadata.partition_for_key(store, key)
        result, cost = self._query_partition(
            store,
            partition,
            consistency,
            lambda server, epoch: server.window_fetch(
                store,
                key,
                partition,
                from_start=from_start,
                to_start=to_start,
                consistency=consistency,
                max_staleness=max_staleness,
                epoch=epoch,
            ),
        )
        self._observe(cost, result.staleness)
        return result

    def range_query(
        self,
        store: str,
        from_key: Optional[Any] = None,
        to_key: Optional[Any] = None,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
    ) -> List[Tuple[Any, Any]]:
        """Scatter-gather scan over every partition of ``store``.

        Per-partition sub-queries fan out concurrently, so the reported
        latency is the slowest partition's, not the sum."""
        rows: List[Tuple[Any, Any]] = []
        worst_cost = 0.0
        worst_staleness = 0.0
        for meta in self.metadata.all_partitions(store):
            result, cost = self._query_partition(
                store,
                meta.partition,
                consistency,
                lambda server, epoch, p=meta.partition: server.range_scan(
                    store,
                    p,
                    from_key=from_key,
                    to_key=to_key,
                    consistency=consistency,
                    max_staleness=max_staleness,
                    epoch=epoch,
                ),
            )
            rows.extend(result.value)
            worst_cost = max(worst_cost, cost)
            worst_staleness = max(worst_staleness, result.staleness)
        self._observe(worst_cost, worst_staleness)
        return sorted(rows, key=lambda kv: repr(kv[0]))

    def all(
        self,
        store: str,
        consistency: str = BOUNDED,
        max_staleness: float = float("inf"),
    ) -> List[Tuple[Any, Any]]:
        return self.range_query(
            store, consistency=consistency, max_staleness=max_staleness
        )

    # -- routing core ----------------------------------------------------------

    def _query_partition(
        self, store: str, partition: int, consistency: str, call
    ) -> Tuple[QueryResult, float]:
        """Run ``call`` against candidate instances until one answers.

        Returns (result, modelled latency in ms). ``call`` receives the
        candidate's QueryServer and the routing epoch the router believes
        is current — the server rejects a stale one, which is how a router
        caching metadata across rebalances discovers it must re-route."""
        meta = self.metadata.partition_metadata(store, partition)
        backoff = ExponentialBackoff(
            self.retry_backoff_ms, self.retry_backoff_max_ms
        )
        elapsed = 0.0
        last_error: Optional[QueryError] = None
        for sweep in range(self.max_attempts):
            if sweep:
                self._retries.increment()
                elapsed += backoff.next_delay_ms()
            refreshed = False
            for instance in meta.candidates(
                allow_standbys=consistency != STRONG
            ):
                elapsed += self.cluster.costs.query_hop()
                try:
                    return call(instance.query_server, meta.epoch), elapsed
                except NotOwnedError as exc:
                    last_error = exc
                    if exc.hint is not None:
                        meta = exc.hint
                        refreshed = True
                        break  # fresh ownership data: start a new sweep
                except StaleEpochError as exc:
                    last_error = exc
                    meta = self.metadata.partition_metadata(store, partition)
                    refreshed = True
                    break
                except StaleStoreError as exc:
                    last_error = exc  # next candidate may be fresher
            if not refreshed:
                meta = self.metadata.partition_metadata(store, partition)
        self._failures.increment()
        raise QueryUnavailableError(
            f"query for store {store!r} partition {partition} failed after "
            f"{self.max_attempts} attempts: {last_error}"
        )

    def _observe(self, cost_ms: float, staleness: float) -> None:
        self._queries.increment()
        self._latency.observe(cost_ms)
        self._freshness.set(staleness)

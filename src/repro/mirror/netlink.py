"""Inter-cluster links: latency, partitions, and the remote-network proxy.

A :class:`InterClusterLink` models one directed wide-area path between two
regions' clusters: a per-round-trip latency on top of whatever the remote
cluster's own network charges, and an up/down state that chaos can flip
(``mirror_link_partition`` / ``mirror_link_flap`` faults).

:class:`LinkedNetwork` is the only sanctioned way for a client living in
one region to talk to another region's brokers: it duck-types the
:class:`~repro.sim.network.Network` surface the clients already use, so a
plain :class:`~repro.clients.consumer.Consumer` becomes a *remote* consumer
by construction (``Consumer(remote_cluster, cfg, network=link.network_to(
remote_cluster))``) — no client code knows about regions. While the link
is partitioned every call raises :class:`~repro.errors.RequestTimeoutError`
(retriable), which is exactly how a mirror stalls and its replication lag
grows instead of anything breaking.

Everything outside :mod:`repro.mirror` must route cross-cluster traffic
through this module (``tests/test_layering_structure.py`` holds the rest
of ``src/repro`` to it).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import RequestTimeoutError


class InterClusterLink:
    """One directed source→target wide-area path between two clusters.

    The link is pure state + cost model: *who* uses it (mirror links,
    remote merge consumers) decides what traffic crosses it. ``up`` is
    flipped by region-failover scenarios and the chaos controller's
    inter-cluster fault kinds; the gauge mirrors it so health reports and
    debug bundles show link state next to replication lag.
    """

    def __init__(
        self,
        source,
        target,
        latency_ms: float = 30.0,
        name: Optional[str] = None,
    ) -> None:
        if latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")
        self.source = source
        self.target = target
        self.latency_ms = latency_ms
        self.name = name or (
            f"{getattr(source, 'name', 'source')}->"
            f"{getattr(target, 'name', 'target')}"
        )
        self.up = True
        self.partitions_injected = 0
        # Link-state gauge lives in the *target* registry: the mirror runs
        # in the target region (MM2 deployment shape), so its health
        # monitor is the one that should see the link flap.
        self._up_gauge = target.metrics.gauge("mirror.link_up", link=self.name)
        self._up_gauge.set(1)

    def partition(self) -> None:
        """Cut the link: every cross-cluster RPC times out until heal()."""
        if self.up:
            self.partitions_injected += 1
        self.up = False
        self._up_gauge.set(0)

    def heal(self) -> None:
        self.up = True
        self._up_gauge.set(1)

    def network_to(self, cluster) -> "LinkedNetwork":
        """The network a client in this link's *other* region uses to reach
        ``cluster`` (one of the link's two endpoints)."""
        if cluster is self.source:
            return LinkedNetwork(self, self.source.network)
        if cluster is self.target:
            return LinkedNetwork(self, self.target.network)
        raise ValueError(f"cluster is not an endpoint of link {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "PARTITIONED"
        return f"InterClusterLink({self.name}, {self.latency_ms}ms, {state})"


class LinkedNetwork:
    """Remote-cluster :class:`~repro.sim.network.Network` proxy.

    Every RPC pays the link's round-trip latency on top of the remote
    network's own cost (charged on the shared clock by the remote network
    itself), and fails retriably while the link is partitioned. The remote
    cluster's own fault rules (gray brokers, severed intra-region links)
    still apply — a cross-region call traverses both failure domains.
    """

    def __init__(self, link: InterClusterLink, remote) -> None:
        self.link = link
        self._remote = remote
        self.clock = remote.clock

    def call(
        self,
        api: str,
        dst: int,
        fn: Callable[[], Any],
        base_cost_ms: Optional[float] = None,
        src: Optional[str] = None,
    ) -> Any:
        link = self.link
        if not link.up:
            # The request is lost in the WAN: charge one one-way latency
            # (the time spent discovering the timeout) and raise the same
            # retriable error a dropped intra-region request produces.
            if self._remote.charge_latency:
                self.clock.advance(link.latency_ms)
            raise RequestTimeoutError(
                f"{api}: inter-cluster link {link.name} is partitioned"
            )
        cost = (
            self._remote.costs.rpc_base_ms
            if base_cost_ms is None
            else base_cost_ms
        )
        return self._remote.call(
            api, dst, fn, base_cost_ms=cost + link.latency_ms, src=src
        )

    # -- cost helpers: same surface the clients use on a local Network ------

    def produce_cost(self, record_count: int) -> float:
        return self._remote.produce_cost(record_count)

    def fetch_cost(self) -> float:
        return self._remote.fetch_cost()

    def coordinator_cost(self) -> float:
        return self._remote.coordinator_cost()

    def marker_cost(self, partition_count: int) -> float:
        return self._remote.marker_cost(partition_count)

"""The network fault shapes the chaos controller arms (Section 2.1).

Lost produce acks, a gray (slow) broker and a severed client-broker link
are network fault rules; ``heal`` ends every fault and restarts every
crashed broker. Broker and instance crashes themselves are
``Cluster.crash_broker`` and the streams runtime's ``crash_instance``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sim.network import FaultRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster


class FailureInjector:
    """Scenario helpers bound to one cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    # -- the inter-processor RPC can fail ---------------------------------------------

    def drop_next_produce_ack(self, count: int = 1, broker_id: Optional[int] = None) -> FaultRule:
        """The append is applied but the acknowledgement is lost: the
        producer will retry, and only idempotence prevents a duplicate."""
        return self.cluster.network.add_fault(
            FaultRule(kind="drop_ack", match_api="produce", match_dst=broker_id, count=count)
        )

    def slow_broker(
        self, broker_id: int, delay_ms: float, duration_ms: float
    ) -> FaultRule:
        """Gray-broker degradation: every RPC to ``broker_id`` pays an extra
        ``delay_ms`` for the next ``duration_ms`` of virtual time."""
        return self.cluster.network.add_fault(
            FaultRule(
                kind="slow",
                match_dst=broker_id,
                delay_ms=delay_ms,
                duration_ms=duration_ms,
            )
        )

    def sever_link(
        self, client_id: str, broker_id: int, duration_ms: float
    ) -> FaultRule:
        """Cut one client↔broker path: requests from ``client_id`` to
        ``broker_id`` are lost for ``duration_ms`` while every other path
        keeps working."""
        return self.cluster.network.add_fault(
            FaultRule(
                kind="drop_request",
                match_src=client_id,
                match_dst=broker_id,
                duration_ms=duration_ms,
            )
        )

    def clear(self) -> None:
        self.cluster.network.clear_faults()

    def heal(self) -> None:
        """Full recovery: clear every armed network fault *and* restart all
        crashed brokers (``clear()`` alone leaves brokers down)."""
        self.clear()
        for broker_id in sorted(self.cluster.brokers):
            self.cluster.restart_broker(broker_id)

"""Gray-failure detection for client→broker RPC paths.

A *gray* broker is alive enough to answer RPCs but slow enough to drag
the whole pipeline down — the failure mode a liveness check cannot see
(the chaos engine injects it as a duration-bounded ``slow`` network
fault). The detector keeps a per-broker latency EWMA fed from observed
RPC round trips and *demotes* a broker whose EWMA exceeds a multiple of
the fleet's median EWMA. While demoted, the consumer hedges fetches to
another in-sync replica (see ``Consumer._fetch_one``); the demotion
window grows through the shared :class:`~repro.util.ExponentialBackoff`
while the broker stays gray and resets once it looks healthy again.

Latencies are *virtual*: they only move when the network charges
latency, so the detector is inert (and free) in logical-time tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.util import ExponentialBackoff


class GrayFailureDetector:
    """Latency-EWMA broker demotion with exponential re-demotion windows."""

    def __init__(
        self,
        clock,
        metrics=None,
        alpha: float = 0.25,
        min_samples: int = 8,
        ratio: float = 3.0,
        floor_ms: float = 1.0,
        demote_initial_ms: float = 50.0,
        demote_max_ms: float = 800.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {ratio}")
        self._clock = clock
        self._metrics = metrics
        self.alpha = alpha
        self.min_samples = min_samples
        self.ratio = ratio
        self.floor_ms = floor_ms
        self._ewma: Dict[int, float] = {}
        self._samples: Dict[int, int] = {}
        self._demoted_until: Dict[int, float] = {}
        self._backoff: Dict[int, ExponentialBackoff] = {}
        self._demote_initial_ms = demote_initial_ms
        self._demote_max_ms = demote_max_ms
        self.demotions = 0

    # -- observations --------------------------------------------------------

    def observe(self, broker_id: int, latency_ms: float) -> None:
        """Feed one RPC round-trip latency (virtual ms) for ``broker_id``."""
        prev = self._ewma.get(broker_id)
        if prev is None:
            self._ewma[broker_id] = latency_ms
        else:
            self._ewma[broker_id] = prev + self.alpha * (latency_ms - prev)
        self._samples[broker_id] = self._samples.get(broker_id, 0) + 1

    def _baseline(self, exclude: int) -> Optional[float]:
        """Median EWMA over the *other* observed brokers."""
        others: List[float] = [
            v for b, v in self._ewma.items()
            if b != exclude and self._samples.get(b, 0) >= self.min_samples
        ]
        if not others:
            return None
        others.sort()
        mid = len(others) // 2
        if len(others) % 2:
            return others[mid]
        return (others[mid - 1] + others[mid]) / 2.0

    # -- demotion ------------------------------------------------------------

    def is_demoted(self, broker_id: int) -> bool:
        until = self._demoted_until.get(broker_id)
        return until is not None and self._clock.now < until

    def check(self, broker_id: int) -> bool:
        """Evaluate ``broker_id`` against the fleet; demote it when its
        EWMA is ``ratio``× the median of its peers (and above the absolute
        floor). Returns True when this call *newly* demoted the broker."""
        if self.is_demoted(broker_id):
            return False
        if self._samples.get(broker_id, 0) < self.min_samples:
            return False
        ewma = self._ewma[broker_id]
        baseline = self._baseline(exclude=broker_id)
        if baseline is None:
            threshold = self.floor_ms
        else:
            threshold = max(self.floor_ms, self.ratio * baseline)
        if ewma <= threshold:
            backoff = self._backoff.get(broker_id)
            if backoff is not None:
                backoff.reset()
            return False
        backoff = self._backoff.setdefault(
            broker_id,
            ExponentialBackoff(self._demote_initial_ms, self._demote_max_ms),
        )
        self._demoted_until[broker_id] = (
            self._clock.now + backoff.next_delay_ms()
        )
        # Forget the gray history so the broker re-earns its reputation
        # from post-demotion samples instead of dragging the stale EWMA
        # through the healthy period.
        self._ewma[broker_id] = threshold
        self._samples[broker_id] = 0
        self.demotions += 1
        if self._metrics is not None:
            self._metrics.counter("client.gray_demotions").increment()
        return True

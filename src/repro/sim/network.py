"""Network RPC layer: latency cost model and fault injection.

Every client→broker and broker→broker interaction in the repro stack is a
synchronous Python call routed through :meth:`Network.call`. The network

* charges a virtual-time latency for the round trip (request + response),
  sized by the RPC kind — this is what makes throughput/latency benchmarks
  meaningful;
* can inject the failure scenarios of Section 2.1 of the paper, most
  importantly the *lost acknowledgement*: the remote operation **is applied**
  but the caller sees a :class:`~repro.errors.RequestTimeoutError` and will
  retry, producing a duplicate send that only idempotence can de-duplicate.

Latencies are deterministic: a seeded RNG adds bounded jitter.

:func:`call_with_retry` is the other half of that failure model — the
client's retries — and the only place it is written down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import BrokerUnavailableError, RequestTimeoutError, RetriableError
from repro.metrics.registry import MetricsRegistry
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.sim.clock import SimClock
from repro.util import ExponentialBackoff

# Modelled CPU cost of processing one record, shared by both Figure 5.b
# engines (the Streams runtime and the barrier baseline) for fairness.
PROCESS_COST_MS_PER_RECORD = 0.008


@dataclass
class NetworkCosts:
    """Virtual-time cost model (milliseconds) for RPC kinds.

    The defaults are calibrated so that the Figure 5 benchmarks land in the
    same regime as the paper's i3.large testbed: a produce round trip below
    a millisecond (batched appends, page-cache writes), coordinator round
    trips of the same order, and per-partition transaction-marker writes
    that make end-to-end latency grow linearly with the number of output
    partitions.
    """

    rpc_base_ms: float = 0.25          # request/response framing + queueing
    produce_per_batch_ms: float = 0.15  # leader append of one batch
    produce_per_record_us: float = 1.0  # marginal per-record append cost (µs)
    fetch_ms: float = 0.20             # consumer/replica fetch round trip
    coordinator_ms: float = 2.0        # txn/group coordinator round trip
                                       # (replicated metadata update)
    marker_write_ms: float = 0.30      # one txn marker append to one partition
    jitter_frac: float = 0.10          # +/- fraction of uniform jitter

    def sample(self, rng: random.Random, base_ms: float) -> float:
        """Latency with deterministic jitter applied."""
        if base_ms <= 0:
            return 0.0
        jitter = base_ms * self.jitter_frac
        return base_ms + rng.uniform(-jitter, jitter)


@dataclass
class FaultRule:
    """Declarative fault to inject on matching RPCs.

    ``kind`` selects the failure mode:

    * ``"drop_ack"`` — apply the operation, then raise RequestTimeoutError
      to the caller (the paper's delayed/lost acknowledgement).
    * ``"drop_request"`` — do *not* apply the operation; raise
      RequestTimeoutError (classic lost request).
    * ``"delay"`` — apply normally but add ``delay_ms`` extra latency.
    * ``"slow"`` — gray broker: like ``delay``, but sustained for
      ``duration_ms`` of virtual time instead of a trigger count.

    Rules expire either by trigger count (``count``, the default) or — when
    ``duration_ms`` is set — by virtual time: the rule stays active from
    arming until ``duration_ms`` later, however many RPCs it hits.

    ``match_src`` matches the caller's identity (a client id, as passed to
    :meth:`Network.call`), so one client↔broker link can be severed or
    degraded while other paths to the same broker proceed.
    """

    KINDS = ("drop_ack", "drop_request", "delay", "slow")

    kind: str
    match_api: Optional[str] = None     # e.g. "produce"; None matches any
    match_dst: Optional[int] = None     # broker id; None matches any
    match_src: Optional[str] = None     # caller identity; None matches any
    count: int = 1                      # how many matching RPCs to affect
    delay_ms: float = 0.0
    duration_ms: Optional[float] = None  # time-bounded instead of count-bounded
    triggered: int = field(default=0, init=False)
    armed_at_ms: float = field(default=0.0, init=False)

    def expired(self, now: float) -> bool:
        if self.duration_ms is not None:
            return now >= self.armed_at_ms + self.duration_ms
        return self.triggered >= self.count

    def matches(self, api: str, dst: int, src: Optional[str] = None,
                now: float = 0.0) -> bool:
        if self.expired(now):
            return False
        if self.match_api is not None and self.match_api != api:
            return False
        if self.match_dst is not None and self.match_dst != dst:
            return False
        if self.match_src is not None and self.match_src != src:
            return False
        return True


class Network:
    """Routes RPCs, charges virtual latency, and injects faults."""

    def __init__(
        self,
        clock: SimClock,
        costs: Optional[NetworkCosts] = None,
        seed: int = 17,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = clock
        self.costs = costs or NetworkCosts()
        self.rng = random.Random(seed)
        self._rules: List[FaultRule] = []
        self._down: set = set()
        self.rpc_counts: Dict[str, int] = {}
        self.charge_latency = True
        # Injected-fault observability: chaos runs report what was actually
        # injected per kind and per api through the shared registry.
        self.metrics = metrics or MetricsRegistry()
        # The cluster that owns this network replaces the no-op tracer with
        # its own; RPC spans then cover exactly the latency charged here.
        self.tracer: Tracer = NOOP_TRACER

    # -- fault control -------------------------------------------------------

    def add_fault(self, rule: FaultRule) -> FaultRule:
        """Arm a fault rule; returns it so tests can inspect ``triggered``.

        Unknown kinds are rejected here, before any RPC can match the rule
        — not at dispatch time, where the rule would already have counted a
        trigger and charged latency. Duration-bounded rules start their
        active window at arming time.
        """
        if rule.kind not in FaultRule.KINDS:
            raise ValueError(
                f"unknown fault kind: {rule.kind!r} (expected one of {FaultRule.KINDS})"
            )
        if rule.kind == "slow" and rule.duration_ms is None:
            raise ValueError("slow (gray-broker) rules need duration_ms")
        if rule.duration_ms is not None and rule.duration_ms <= 0:
            raise ValueError(f"duration_ms must be > 0, got {rule.duration_ms}")
        rule.armed_at_ms = self.clock.now
        self._rules.append(rule)
        return rule

    def clear_faults(self) -> None:
        self._rules.clear()

    def active_faults(self) -> List[FaultRule]:
        """Rules that can still trigger (prunes expired ones)."""
        now = self.clock.now
        self._rules = [r for r in self._rules if not r.expired(now)]
        return list(self._rules)

    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault counters (``network.faults.*``) from the registry."""
        return {
            name: value
            for name, value in self.metrics.counters().items()
            if name.startswith("network.faults.")
        }

    def set_broker_down(self, broker_id: int, down: bool = True) -> None:
        """Mark a broker unreachable (RPCs raise BrokerUnavailableError)."""
        if down:
            self._down.add(broker_id)
        else:
            self._down.discard(broker_id)

    # -- RPC dispatch ----------------------------------------------------------

    def call(
        self,
        api: str,
        dst: int,
        fn: Callable[[], Any],
        base_cost_ms: Optional[float] = None,
        src: Optional[str] = None,
    ) -> Any:
        """Invoke ``fn`` as an RPC of kind ``api`` against broker ``dst``.

        Charges round-trip latency on the shared clock and applies the first
        matching fault rule. The *lost ack* fault applies ``fn`` first, then
        raises — exactly the ambiguity a real sender faces. ``src`` is the
        caller's identity (client id), matched by link-level fault rules.
        """
        tracer = self.tracer
        handle = (
            tracer.begin(api, f"broker-{dst}", api, category="rpc", src=src or "")
            if tracer.enabled
            else None
        )
        try:
            self.rpc_counts[api] = self.rpc_counts.get(api, 0) + 1
            if dst in self._down:
                raise BrokerUnavailableError(f"broker {dst} is down ({api})")
            cost = self.costs.rpc_base_ms if base_cost_ms is None else base_cost_ms
            # Nothing armed is the common case: no scan, no clock read.
            rule = self._first_match(api, dst, src) if self._rules else None
            if rule is not None:
                rule.triggered += 1
                self._count_fault(rule.kind, api)
                if rule.kind == "drop_request":
                    self._charge(cost)
                    raise RequestTimeoutError(f"{api} to broker {dst}: request lost")
                if rule.kind == "drop_ack":
                    fn()  # applied, but the ack never arrives
                    self._charge(cost)
                    raise RequestTimeoutError(f"{api} to broker {dst}: ack lost")
                # "delay" / "slow" — kinds are validated in add_fault
                self._charge(rule.delay_ms)
            result = fn()
            self._charge(cost)
            return result
        except Exception as exc:
            if handle is not None:
                handle.add(error=type(exc).__name__)
            raise
        finally:
            if handle is not None:
                handle.end()

    def _count_fault(self, kind: str, api: str) -> None:
        self.metrics.counter("network.faults.injected").increment()
        self.metrics.counter(f"network.faults.kind.{kind}").increment()
        self.metrics.counter(f"network.faults.api.{api}").increment()

    def _first_match(
        self, api: str, dst: int, src: Optional[str] = None
    ) -> Optional[FaultRule]:
        now = self.clock.now
        for rule in self._rules:
            if rule.matches(api, dst, src, now):
                return rule
        return None

    def _charge(self, base_ms: float) -> None:
        if not self.charge_latency:
            return
        self.clock.advance(self.costs.sample(self.rng, base_ms))

    # -- cost helpers used by brokers/clients ----------------------------------

    def produce_cost(self, record_count: int) -> float:
        """Latency of one produce request carrying ``record_count`` records."""
        per_record = self.costs.produce_per_record_us / 1000.0
        return (
            self.costs.rpc_base_ms
            + self.costs.produce_per_batch_ms
            + per_record * record_count
        )

    def fetch_cost(self) -> float:
        return self.costs.rpc_base_ms + self.costs.fetch_ms

    def coordinator_cost(self) -> float:
        return self.costs.rpc_base_ms + self.costs.coordinator_ms

    def marker_cost(self, partition_count: int) -> float:
        """Cost of writing txn markers to ``partition_count`` partitions.

        Markers to partitions on the same broker are batched into one RPC in
        Kafka; we approximate with a per-partition append cost plus one base.
        """
        return self.costs.rpc_base_ms + self.costs.marker_write_ms * partition_count


def call_with_retry(
    network, cluster, config, api: str, tp, fn: Callable[[], Any], cost_ms: float,
    *, timeout_ms: float, kind: str, detail: Mapping[str, Any],
    max_retries: Optional[int] = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> Any:
    """The client call path: ``network.call`` to the leader of ``tp``, sent
    again through retriable failures (Section 4.1: it may or may not have
    been applied; the broker de-duplicates).

    Each attempt is exactly one ``network.call`` to whoever ``cluster`` says
    leads ``tp`` *now*; a failed lookup is retried like a failed call. Between attempts the virtual
    clock advances by the capped exponential backoff of the client's
    ``config``, so recovery scheduled on timers happens *during* the wait.
    Gives up by re-raising the last error once ``timeout_ms`` have passed
    since the first attempt, or after ``max_retries`` re-sends. Every failed
    attempt calls ``on_retry`` and is noted on ``cluster.recovery`` as a
    ``kind`` detection, ``detail`` rendered as strings only then.
    """
    clock, src = network.clock, config.client_id
    deadline = clock.now + timeout_ms
    backoff: Optional[ExponentialBackoff] = None    # built on the first retry
    failures = 0
    while True:
        try:
            return network.call(
                api, cluster.leader_of(tp), fn, base_cost_ms=cost_ms, src=src
            )
        except RetriableError:
            failures += 1
            if on_retry is not None:
                on_retry()
            cluster.recovery.note_detection(
                kind, client=src, **{name: str(value) for name, value in detail.items()}
            )
            remaining = deadline - clock.now
            if remaining <= 0 or (max_retries is not None and failures > max_retries):
                raise
            if backoff is None:
                backoff = ExponentialBackoff(
                    config.retry_backoff_ms, config.retry_backoff_max_ms
                )
            clock.advance(min(backoff.next_delay_ms(), remaining))

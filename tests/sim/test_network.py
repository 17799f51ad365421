"""Unit tests for the network's latency charging and fault injection."""

import sys

import pytest

from repro.errors import (
    BrokerUnavailableError,
    ProducerFencedError,
    RequestTimeoutError,
)
from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.network import FaultRule, Network, call_with_retry


@pytest.fixture
def net():
    return Network(SimClock(), CostModel(jitter_frac=0.0), seed=1)


def test_call_invokes_function_and_returns_result(net):
    assert net.call("produce", 0, lambda: 41 + 1) == 42


def test_call_charges_latency(net):
    net.call("produce", 0, lambda: None, base_cost_ms=3.0)
    assert net.clock.now == pytest.approx(3.0)


def test_jitter_is_bounded_and_deterministic():
    costs = CostModel(jitter_frac=0.1)
    net_a = Network(SimClock(), costs, seed=5)
    net_b = Network(SimClock(), costs, seed=5)
    for _ in range(20):
        net_a.call("x", 0, lambda: None, base_cost_ms=10.0)
        net_b.call("x", 0, lambda: None, base_cost_ms=10.0)
    assert net_a.clock.now == net_b.clock.now
    assert 20 * 9.0 <= net_a.clock.now <= 20 * 11.0


def test_charge_latency_can_be_disabled(net):
    net.charge_latency = False
    net.call("produce", 0, lambda: None, base_cost_ms=100.0)
    assert net.clock.now == 0.0


def test_rpc_counts_accumulate(net):
    net.call("produce", 0, lambda: None)
    net.call("produce", 1, lambda: None)
    net.call("fetch", 0, lambda: None)
    assert net.rpc_counts == {"produce": 2, "fetch": 1}


def test_down_broker_raises(net):
    net.set_broker_down(2)
    with pytest.raises(BrokerUnavailableError):
        net.call("produce", 2, lambda: None)
    net.set_broker_down(2, down=False)
    assert net.call("produce", 2, lambda: 1) == 1


def test_drop_ack_applies_operation_then_times_out(net):
    """The paper's lost-acknowledgement: the effect happens, the ack doesn't."""
    applied = []
    net.add_fault(FaultRule(kind="drop_ack", match_api="produce"))
    with pytest.raises(RequestTimeoutError):
        net.call("produce", 0, lambda: applied.append(1))
    assert applied == [1]
    # Rule is exhausted: next call succeeds.
    net.call("produce", 0, lambda: applied.append(2))
    assert applied == [1, 2]


def test_drop_request_does_not_apply_operation(net):
    applied = []
    net.add_fault(FaultRule(kind="drop_request", match_api="produce"))
    with pytest.raises(RequestTimeoutError):
        net.call("produce", 0, lambda: applied.append(1))
    assert applied == []


def test_fault_matches_api_and_destination(net):
    net.add_fault(FaultRule(kind="drop_request", match_api="produce", match_dst=1))
    net.call("fetch", 1, lambda: None)          # different api: unaffected
    net.call("produce", 0, lambda: None)        # different dst: unaffected
    with pytest.raises(RequestTimeoutError):
        net.call("produce", 1, lambda: None)


def test_fault_count_limits_triggers(net):
    rule = net.add_fault(FaultRule(kind="drop_request", match_api="produce", count=2))
    for _ in range(2):
        with pytest.raises(RequestTimeoutError):
            net.call("produce", 0, lambda: None)
    net.call("produce", 0, lambda: None)
    assert rule.triggered == 2


def test_delay_fault_adds_latency(net):
    net.add_fault(FaultRule(kind="delay", match_api="produce", delay_ms=50.0))
    net.call("produce", 0, lambda: None, base_cost_ms=1.0)
    assert net.clock.now == pytest.approx(51.0)


def test_clear_faults(net):
    net.add_fault(FaultRule(kind="drop_request", match_api="produce"))
    net.clear_faults()
    net.call("produce", 0, lambda: None)  # should not raise


def test_slow_fault_requires_duration(net):
    with pytest.raises(ValueError):
        net.add_fault(FaultRule(kind="slow", match_dst=0, delay_ms=5.0))
    with pytest.raises(ValueError):
        net.add_fault(
            FaultRule(kind="slow", match_dst=0, delay_ms=5.0, duration_ms=0.0)
        )


def test_slow_fault_degrades_until_duration_expires(net):
    net.add_fault(
        FaultRule(kind="slow", match_dst=0, delay_ms=10.0, duration_ms=25.0)
    )
    net.call("produce", 0, lambda: None, base_cost_ms=1.0)
    assert net.clock.now == pytest.approx(11.0)      # degraded
    net.call("produce", 1, lambda: None, base_cost_ms=1.0)
    assert net.clock.now == pytest.approx(12.0)      # other broker unaffected
    net.call("produce", 0, lambda: None, base_cost_ms=1.0)
    assert net.clock.now == pytest.approx(23.0)      # still degraded
    net.clock.advance(10.0)                          # past 25ms window
    net.call("produce", 0, lambda: None, base_cost_ms=1.0)
    assert net.clock.now == pytest.approx(34.0)      # healthy again


def test_duration_bound_applies_to_drop_rules_too(net):
    net.add_fault(
        FaultRule(kind="drop_request", match_dst=0, duration_ms=5.0)
    )
    for _ in range(3):                               # not count-limited
        with pytest.raises(RequestTimeoutError):
            net.call("produce", 0, lambda: None, base_cost_ms=1.0)
    net.clock.advance(10.0)
    net.call("produce", 0, lambda: None)             # expired


def test_match_src_severs_one_link_only(net):
    applied = []
    net.add_fault(
        FaultRule(
            kind="drop_request", match_src="client-a", match_dst=0, duration_ms=100.0
        )
    )
    with pytest.raises(RequestTimeoutError):
        net.call("produce", 0, lambda: applied.append("a"), src="client-a")
    net.call("produce", 0, lambda: applied.append("b"), src="client-b")
    net.call("produce", 1, lambda: applied.append("a1"), src="client-a")
    net.call("produce", 0, lambda: applied.append("anon"))     # no src
    assert applied == ["b", "a1", "anon"]


def test_active_faults_prunes_expired(net):
    """A count rule is spent once it has fired and a timed rule lapses with
    its window: after both, a call goes through untouched."""
    count_rule = net.add_fault(FaultRule(kind="drop_request", count=1))
    timed_rule = net.add_fault(
        FaultRule(kind="slow", delay_ms=1.0, duration_ms=5.0)
    )
    with pytest.raises(RequestTimeoutError):
        net.call("produce", 0, lambda: None)
    net.clock.advance(10.0)
    now = net.clock.now
    assert count_rule.expired(now) and timed_rule.expired(now)
    assert net.call("produce", 0, lambda: 42, base_cost_ms=0.0) == 42
    assert net.clock.now == now


def test_fault_counters_by_kind_and_api(net):
    net.add_fault(FaultRule(kind="drop_ack", match_api="produce", count=2))
    net.add_fault(FaultRule(kind="delay", match_api="fetch", delay_ms=1.0))
    for _ in range(2):
        with pytest.raises(RequestTimeoutError):
            net.call("produce", 0, lambda: None)
    net.call("fetch", 0, lambda: None)
    assert net.metrics.counters("network.faults.") == {
        "network.faults.injected": 3,
        "network.faults.kind.drop_ack": 2,
        "network.faults.kind.delay": 1,
        "network.faults.api.produce": 2,
        "network.faults.api.fetch": 1,
    }


def test_unknown_fault_kind_rejected(net):
    with pytest.raises(ValueError):
        net.add_fault(FaultRule(kind="explode"))


def test_marker_cost_grows_linearly():
    """The transaction coordinator schedules a commit's markers one broker
    RPC plus one append apiece: on a single broker, 100 partitions finish
    99 marker appends after one does."""

    def completion_delays(partitions):
        cluster = Cluster(num_brokers=1, seed=1)
        cluster.costs.jitter_frac = 0.0
        cluster.create_topic("t", partitions)
        coordinator = cluster.txn_coordinator
        pid, epoch = coordinator.init_producer_id("tid", timeout_ms=60_000.0)
        coordinator.add_partitions(
            "tid", pid, epoch, [TopicPartition("t", p) for p in range(partitions)]
        )
        delays = []
        schedule = cluster.clock.schedule

        def recording(delay_ms, callback, wake=True):
            delays.append(delay_ms)
            return schedule(delay_ms, callback, wake=wake)

        cluster.clock.schedule = recording
        coordinator.end_transaction("tid", pid, epoch, commit=True)
        return delays

    costs = CostModel()
    one, hundred = completion_delays(1), completion_delays(100)
    # One timer per marker, then the completion at the last marker's delay.
    assert len(one) == 2 and len(hundred) == 101
    assert one == [costs.rpc_base_ms + costs.marker_write_ms] * 2
    assert hundred[-1] - one[-1] == pytest.approx(99 * costs.marker_write_ms)


def test_produce_cost_scales_with_records():
    costs = CostModel()
    assert costs.produce(1000) > costs.produce(1)


def test_an_untraced_call_with_nothing_armed_is_one_frame_and_no_rule_scan(net):
    """The happy path of every RPC: ``fn`` runs directly under ``call``,
    and the fault rules are not even walked while none is armed."""
    net._first_match = None    # calling it would raise
    callers = []

    def fn():
        frame = sys._getframe(1)
        callers.extend([frame.f_code.co_name, frame.f_back.f_code.co_name])

    net.call("produce", 0, fn)
    assert callers == ["call", sys._getframe().f_code.co_name]


class _OnlyCallAndClock:
    """What an inter-cluster link's proxy offers, and all the retry policy
    may ask for. Fails ``failures`` times, then answers."""

    def __init__(self, failures):
        self.clock = SimClock()
        self.failures = failures
        self.attempts = []

    def call(self, api, dst, fn, base_cost_ms=None, src=None):
        self.attempts.append((self.clock.now, api, dst, base_cost_ms, src))
        if len(self.attempts) <= self.failures:
            raise RequestTimeoutError("lost")
        return fn()


class _Notes:
    """What the policy asks of a cluster: who leads, and where to note."""

    def __init__(self):
        self.recovery = self
        self.noted = []
        self._leaders = iter(range(100))

    def leader_of(self, tp):
        return next(self._leaders)

    def note_detection(self, source, **details):
        self.noted.append((source, details))


class _Config:
    client_id = "p"
    retry_backoff_ms = 1.0
    retry_backoff_max_ms = 4.0


def retried(network, fn=lambda: "ok", timeout_ms=1_000.0, **policy):
    cluster = _Notes()
    try:
        outcome = call_with_retry(
            network, cluster, _Config, "produce", ("t", 0), fn, 0.5,
            timeout_ms=timeout_ms, kind="send_retry", detail={"tp": ("t", 0)},
            **policy,
        )
    except RequestTimeoutError:
        outcome = "gave up"
    return outcome, cluster.noted


def test_retry_policy_needs_only_call_and_clock_and_reroutes_every_attempt():
    network = _OnlyCallAndClock(failures=4)
    counted = []
    outcome, noted = retried(network, on_retry=lambda: counted.append(1))
    assert outcome == "ok"
    # Capped exponential backoff on the virtual clock; a fresh route each time.
    assert network.attempts == [
        (0.0, "produce", 0, 0.5, "p"),
        (1.0, "produce", 1, 0.5, "p"),
        (3.0, "produce", 2, 0.5, "p"),
        (7.0, "produce", 3, 0.5, "p"),
        (11.0, "produce", 4, 0.5, "p"),
    ]
    assert len(counted) == 4
    assert noted == [("send_retry", {"client": "p", "tp": "('t', 0)"})] * 4


def test_retry_policy_gives_up_at_the_cap_or_the_deadline_with_the_last_error():
    capped = _OnlyCallAndClock(failures=10**6)
    assert retried(capped, max_retries=2)[0] == "gave up"
    assert len(capped.attempts) == 3            # the first try and two re-sends
    timed = _OnlyCallAndClock(failures=10**6)
    outcome, noted = retried(timed, timeout_ms=10.0)
    assert outcome == "gave up"
    # The last wait is cut to what is left of the budget: 1 + 2 + 4 + 3.
    assert [at for at, *_ in timed.attempts] == [0.0, 1.0, 3.0, 7.0, 10.0]
    assert len(noted) == 5


def test_retry_policy_lets_everything_that_is_not_retriable_through():
    network = _OnlyCallAndClock(failures=0)

    def fenced():
        raise ProducerFencedError("zombie")

    with pytest.raises(ProducerFencedError):
        retried(network, fn=fenced)
    assert len(network.attempts) == 1

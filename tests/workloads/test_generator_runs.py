"""Run-at-a-time production is the per-record loop, observably.

``WorkloadGenerator.produce_for`` draws every record
between two clock events in one pass and hand them to the producer as one
chunk. The property pits that against ``ReferenceLoop``
(``tests/workloads/reference.py``), the record-at-a-time loop it replaced,
on twin clusters: every generator flavour (the base, pageviews, market
data whose value draw consumes the rng, conversations with their own draw
order), late events, a batch size small enough that the producer's room
cuts runs, timers of both flavours due mid-slice (cancelled, zero-delay,
one whose callback advances the clock, one that schedules another),
charged RPC latency, traced and untraced, and buffers carried across
calls. The two runs
must leave the same log (keys, values, timestamps, headers with trace ids,
offsets, producer sequences), the same clock and counters, and show every
timer callback the same clock and log.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import ProducerConfig
from repro.workloads.conversations import ConversationGenerator
from repro.workloads.generator import LatenessModel, WorkloadGenerator
from repro.workloads.market_data import MarketDataGenerator
from repro.workloads.pageviews import PageViewGenerator

from tests.workloads.reference import ReferenceLoop

TOPIC = "events"


def base(cluster, lateness, seed, rate):
    return WorkloadGenerator(
        cluster, TOPIC, rate_per_sec=rate, key_space=37, key_prefix="k",
        lateness=lateness, seed=seed,
    )


def scaled_values(cluster, lateness, seed, rate):
    return WorkloadGenerator(
        cluster, TOPIC, rate_per_sec=rate, key_space=64,
        value_fn=lambda rng, i: 1 + i % 9, lateness=lateness, seed=seed,
    )


GENERATORS = {
    "base": base,
    "scaled_values": scaled_values,
    "pageviews": lambda cluster, lateness, seed, rate: PageViewGenerator(
        cluster, TOPIC, rate_per_sec=rate, users=50, lateness=lateness, seed=seed,
    ),
    "market_data": lambda cluster, lateness, seed, rate: MarketDataGenerator(
        cluster, TOPIC, rate_per_sec=rate, instruments=20, outlier_fraction=0.2,
        lateness=lateness, seed=seed,
    ),
    "conversations": lambda cluster, lateness, seed, rate: ConversationGenerator(
        cluster, TOPIC, rate_per_sec=rate, conversations=9, close_fraction=0.2,
        lateness=lateness, seed=seed,
    ),
}

TIMERS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=80.0)),
        st.booleans(),                                      # wake
        st.sampled_from(["note", "cancelled", "advance", "reschedule"]),
    ),
    max_size=6,
)
CALLS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0),           # duration_ms
        st.booleans(),                                      # flush
    ),
    min_size=1,
    max_size=3,
)
SCENARIOS = st.fixed_dictionaries({
    "partitions": st.integers(min_value=1, max_value=4),
    "late_fraction": st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    "rate": st.sampled_from([3.0, 100.0, 1000.0, 7000.0, 10_000.0]),
    "batch_max_records": st.sampled_from([1, 2, 3, 7, 500]),
    "seed": st.integers(min_value=0, max_value=2**16),
    "traced": st.booleans(),
    "timers": TIMERS,
    "calls": CALLS,
})


def run(scenario, reference: bool):
    """Everything observable after ``scenario``, produced run by run or,
    with ``reference``, record by record."""
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.create_topic(TOPIC, scenario["partitions"])
    if scenario["traced"]:
        cluster.enable_tracing()
    clock = cluster.clock
    lateness = LatenessModel(
        late_fraction=scenario["late_fraction"], mean_late_ms=30.0, max_late_ms=90.0
    )
    generator = GENERATORS[scenario["kind"]](
        cluster, lateness, scenario["seed"], scenario["rate"]
    )
    generator.producer = Producer(
        cluster,
        ProducerConfig(client_id="gen", batch_max_records=scenario["batch_max_records"]),
    )
    partitions = [TopicPartition(TOPIC, p) for p in range(scenario["partitions"])]

    def log_ends():
        return [cluster.partition_state(tp).leader_log().log_end_offset
                for tp in partitions]

    seen = []

    def callback(label, kind):
        def fire():
            seen.append((label, clock.now, log_ends(), generator.producer.records_sent))
            if kind == "advance":
                clock.advance(1.25)
            elif kind == "reschedule":
                clock.schedule(3.5, callback(f"{label}'", "note"), wake=False)
        return fire

    for label, (delay, wake, kind) in enumerate(scenario["timers"]):
        timer = clock.schedule(delay, callback(label, kind), wake=wake)
        if kind == "cancelled":
            timer.cancel()

    loop = ReferenceLoop(generator) if reference else generator
    returned = []
    for duration_ms, flush in scenario["calls"]:
        returned.append(loop.produce_for(duration_ms, flush=flush))
    generator.producer.flush()

    logs = [
        [
            (r.offset, r.key, r.value, r.timestamp, dict(r.headers),
             r.producer_id, r.sequence)
            for r in cluster.partition_state(tp).leader_log().records()
        ]
        for tp in partitions
    ]
    return {
        "logs": logs,
        "now": clock.now,
        "records_produced": generator.records_produced,
        "sequence": generator._sequence,
        "returned": returned,
        "seen": seen,
        "next_trace_id": cluster.tracer.new_trace_id(),
        "rpcs": dict(cluster.network.rpc_counts),
        "conversations": dict(getattr(generator, "_seq_in_conversation", {})),
    }


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@settings(max_examples=50, deadline=None)
@given(scenario=SCENARIOS)
def test_runs_equal_the_per_record_loop(kind, scenario):
    scenario = {**scenario, "kind": kind}
    expected = run(scenario, reference=True)
    actual = run(scenario, reference=False)
    assert actual == expected
    assert repr(actual) == repr(expected)      # -0.0 and dict order too


def test_a_run_ends_where_a_timer_falls_due():
    """The clock a timer callback sees is the per-record loop's: at its own
    deadline, with the records sent before it already stamped."""
    scenario = {
        "kind": "base", "partitions": 2, "late_fraction": 0.0, "rate": 1000.0,
        "batch_max_records": 500, "seed": 3, "traced": False,
        "timers": [(4.5, True, "note"), (7.0, False, "advance"), (0.0, True, "note")],
        "calls": [(12.0, True)],
    }
    expected = run(scenario, reference=True)
    assert [label for label, *_ in expected["seen"]] == [2, 0, 1]
    assert run(scenario, reference=False) == expected

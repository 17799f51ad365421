"""Determinism (paper Section 7).

"Kafka Streams does not forbid non-determinism from its DSL, but does make
deterministic incoming record choices based on record timestamps. As a
result, users can achieve determinism if they enable exactly-once
processing mode and do not specify non-deterministic processors."

We run identical deterministic topologies twice — same seeds, same inputs —
and require byte-identical committed output sequences, including under a
crash/recovery schedule.
"""

import random

from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import JoinWindows, KafkaStreams, StreamsBuilder, TimeWindows

from tests.streams.harness import drain_topic, make_cluster


def build_pipeline(builder):
    stream = builder.stream("in")
    clean = stream.filter(lambda k, v: v["value"] >= 0)
    (
        clean.map(lambda k, v: (v["category"], v["value"]))
        .group_by_key()
        .windowed_by(TimeWindows.of(100.0).grace(200.0))
        .aggregate(lambda: 0, lambda k, v, agg: agg + v)
        .to_stream()
        .to("out")
    )


def run_once(crash_round=None):
    cluster = make_cluster(**{"in": 2, "out": 2})
    builder = StreamsBuilder()
    build_pipeline(builder)
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="det",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=300.0,
        ),
    )
    app.start(2)
    rng = random.Random(99)
    producer = Producer(cluster)
    for i in range(150):
        producer.send(
            "in",
            key=f"k{rng.randrange(20)}",
            value={"category": f"c{rng.randrange(4)}", "value": rng.randrange(-2, 10)},
            timestamp=float(i * 7),
        )
    producer.flush()
    for round_no in range(4):
        app.step()
        if crash_round == round_no:
            app.crash_instance(app.instances[0])
            app.add_instance()
            cluster.clock.advance(350.0)
    cluster.clock.advance(350.0)
    app.run_until_idle(max_steps=20_000)
    cluster.clock.advance(350.0)
    app.run_until_idle(max_steps=20_000)
    records = drain_topic(cluster, "out")
    # Committed output as (partition-ordered) sequences.
    by_partition = {}
    for record in records:
        by_partition.setdefault(record.partition, []).append(
            ((record.key.key, record.key.window.start), record.value)
        )
    return by_partition


def final_state(by_partition):
    final = {}
    for sequence in by_partition.values():
        for key, value in sequence:
            final[key] = value
    return final


def test_identical_runs_produce_identical_output_sequences():
    assert run_once() == run_once()


def test_crashed_run_converges_to_failure_free_final_state():
    """Mid-run crashes may change which intermediate revisions commit, but
    the final value per (key, window) equals the failure-free run's."""
    clean = final_state(run_once())
    crashed = final_state(run_once(crash_round=1))
    assert crashed == clean


def test_crash_at_different_points_same_final_state():
    states = [final_state(run_once(crash_round=r)) for r in (0, 2)]
    assert states[0] == states[1]

"""Rebalance protocols — per-task unavailability under rolling restarts.

An eager rebalance revokes every partition from every member, so each
membership change stops the world and any task that actually moved pays a
cold changelog restore before processing resumes. The cooperative
protocol (KIP-429) hands over only the moved partitions — retained tasks
never stop — and lag-aware placement (KIP-441) keeps a moving stateful
task on its old owner until a warmup standby at the destination has
caught up, turning the migration's cold restore into a warm handoff.

The measured quantity is the per-task unavailability window: the virtual
time from the task's last commit before revocation to its first processed
record after reopening, recorded by the runtime in the
``rebalance_unavailability_ms`` histogram. Rebalance counts come from the
tracer's ``group.rebalance`` spans. Both protocols run the same seeded
rolling-restart schedule and must commit identical output.
"""

from harness import WallTimer, bench_scale, make_bench_cluster, smoke_mode, write_bench_json
from harness_report import record_table

from repro.clients.producer import Producer
from repro.config import COOPERATIVE, EAGER, EXACTLY_ONCE, StreamsConfig
from repro.metrics.reporter import format_table
from repro.sim.invariants import committed_records
from repro.streams import KafkaStreams, StreamsBuilder

PARTITIONS = 4
KEY_SPACE = 50
# Keys written (one record each) before the first roll: the state a cold
# restore replays. Distinct keys make that a property of the data — a task
# folds a chunk's updates of one key into one changelog append.
STATE_RECORDS = 4000
ROLL_RECORDS = 30        # records pumped per slice while rolling
ROLLS = 2


def _produce(cluster, start, n, key_space=KEY_SPACE):
    producer = Producer(cluster)
    for i in range(start, start + n):
        producer.send("in", key=f"k{i % key_space}", value=1, timestamp=float(i))
    producer.flush()
    return start + n


def _pump(app, cluster, cursor, slices, slice_ms=60.0):
    """Keep records flowing while the group reshapes: unavailability
    windows only close when the reopened task processes its next record."""
    for _ in range(slices):
        cursor = _produce(cluster, cursor, ROLL_RECORDS)
        app.run_for(slice_ms)
    return cursor


def run_one(protocol):
    cluster = make_bench_cluster(seed=57)
    cluster.enable_tracing()
    cluster.create_topic("in", PARTITIONS)
    cluster.create_topic("out", PARTITIONS)
    builder = StreamsBuilder()
    builder.stream("in").group_by_key().count("counts").to_stream().to("out")
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="rolling",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            transaction_timeout_ms=500.0,
            rebalance_protocol=protocol,
            num_standby_replicas=1,
            # Gate every stateful move behind a warmup (cooperative only;
            # the knob is inert under eager), so migrations always hand
            # off warm state instead of paying a cold restore.
            acceptable_recovery_lag=0,
            probing_rebalance_interval_ms=100.0,
        ),
    )
    app.start(2)
    state_records = max(200, int(STATE_RECORDS * bench_scale()))
    cursor = _produce(cluster, 0, state_records, key_space=state_records)
    app.run_until_idle(max_steps=50_000)

    # Rolling restart: retire one instance, let the group re-absorb its
    # tasks, then bring a replacement in — twice — with records flowing
    # the whole time.
    for _ in range(ROLLS):
        app.remove_instance(app.instances[0])
        cursor = _pump(app, cluster, cursor, slices=5)
        app.add_instance()
        cursor = _pump(app, cluster, cursor, slices=12)
    app.run_until_idle(max_steps=50_000)
    cluster.clock.advance(600.0)
    app.run_until_idle(max_steps=50_000)
    app.close()

    histogram = cluster.metrics.histogram(
        "rebalance_unavailability_ms", app="rolling"
    )
    rebalances = [
        span for span in cluster.tracer.spans if span.name == "group.rebalance"
    ]
    return {
        "protocol": protocol,
        "records": cursor,
        "windows": histogram.count,
        "mean_ms": histogram.mean(),
        "p95_ms": histogram.percentile(95),
        "max_ms": histogram.percentile(100),
        "rebalances": len(rebalances),
        "output": committed_records(cluster, ["out"]),
    }


_results = {}


def _run_all():
    for protocol in (EAGER, COOPERATIVE):
        _results[protocol] = run_one(protocol)
    return _results


def test_rebalance_unavailability(benchmark):
    with WallTimer() as timer:
        benchmark.pedantic(_run_all, rounds=1, iterations=1)

    eager = _results[EAGER]
    coop = _results[COOPERATIVE]
    write_bench_json(
        "rebalance",
        {"partitions": PARTITIONS, "rolls": ROLLS,
         "state_records": max(200, int(STATE_RECORDS * bench_scale()))},
        [
            {
                "label": r["protocol"],
                "records": r["records"],
                "rebalances": r["rebalances"],
                "task_windows": r["windows"],
                "mean_unavailability_ms": round(r["mean_ms"], 3),
                "p95_unavailability_ms": round(r["p95_ms"], 3),
                "max_unavailability_ms": round(r["max_ms"], 3),
            }
            for r in (eager, coop)
        ],
        wall_seconds=timer.seconds,
    )
    rows = [
        [
            r["protocol"],
            r["rebalances"],
            r["windows"],
            f"{r['mean_ms']:.2f}",
            f"{r['p95_ms']:.2f}",
            f"{r['max_ms']:.2f}",
        ]
        for r in (eager, coop)
    ]
    reduction = eager["mean_ms"] / max(coop["mean_ms"], 1e-9)
    rows.append(["reduction", "", "", f"{reduction:.1f}x", "", ""])
    record_table(
        "Rebalance protocols — task unavailability under rolling restarts",
        format_table(
            ["protocol", "rebalances", "task windows",
             "mean ms", "p95 ms", "max ms"],
            rows,
        ),
    )

    # Same workload, same schedule: the protocols must commit the same
    # output (the consistency half of the claim, cheap to keep honest).
    assert eager["records"] == coop["records"]
    for topic in eager["output"]:
        assert sorted(eager["output"][topic], key=repr) == sorted(
            coop["output"][topic], key=repr
        ), "committed output differs between rebalance protocols"

    if smoke_mode():
        return

    assert eager["windows"] > 0 and coop["windows"] > 0
    # The availability half: cooperative handovers shrink the mean
    # per-task outage by at least 2x.
    assert coop["mean_ms"] * 2 <= eager["mean_ms"], (
        f"cooperative mean {coop['mean_ms']:.2f}ms vs "
        f"eager {eager['mean_ms']:.2f}ms"
    )

"""The perf ledger's ``failover_eos`` scenario, rebuilt from ``repro.*``.

A running-max reduce over 2 000 keys on two instances (4 input, 4 output
partitions, 3 brokers, exactly-once, 100 ms commits); one instance is lost
a third of the way through the horizon and replaced. The fault-free run
on a fresh cluster is the golden output, and the faulted run must commit
exactly the same rows — nothing lost, nothing twice.

Both protocols run here, each unthrottled and with
``restore_max_records_per_poll=500``. What keeps the eager replacement
exact: its consumer reads the committed offsets only once the group's
offsets are stable, so it never starts before the revocation-barrier
commit, and its stores count as restored only once no transaction is open
on their changelogs, so they hold that commit's updates.
"""

import random
from collections import Counter

import pytest

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import (
    COOPERATIVE,
    EAGER,
    EXACTLY_ONCE,
    ProducerConfig,
    StreamsConfig,
)
from repro.sim.invariants import InvariantSuite, committed_records
from repro.sim.scenarios import ScenarioHarness
from repro.streams import KafkaStreams, StreamsBuilder

TOTAL = 24_000
KEYS = 2_000
SLICES = 240
HORIZON_MS = 3_200.0
CHAOS_SEED = 7
#: The ledger's application id. Its group's offsets live on
#: ``__consumer_offsets-2``, the one placement on which the eager defect
#: showed.
APPLICATION_ID = "ledger-failover"


def _running_max(aggregate, value):
    return aggregate if aggregate >= value else value


def _start(cluster, protocol, restore_budget):
    cluster.create_topic("in", 4)
    cluster.create_topic("out", 4)
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .group_by_key()
        .reduce(_running_max, store_name="maxes")
        .to_stream()
        .to("out")
    )
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id=APPLICATION_ID,
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=100.0,
            transaction_timeout_ms=300.0,
            rebalance_protocol=protocol,
            restore_max_records_per_poll=restore_budget,
        ),
    )
    app.start(2)
    return app


def _paced_producer(cluster, seed):
    """``produce(i)`` sends slice ``i`` of the seed's record stream."""
    rng = random.Random(seed)
    keys = [f"k{rng.randrange(KEYS)}" for _ in range(TOTAL)]
    values = [rng.randrange(1_000_000) for _ in range(TOTAL)]
    producer = Producer(cluster, ProducerConfig(client_id="ledger-paced"))
    per_slice = TOTAL // SLICES

    def produce(index):
        for i in range(index * per_slice, (index + 1) * per_slice):
            producer.send("in", key=keys[i], value=values[i], timestamp=float(i))
        producer.flush()

    return produce


def failover_rows(seed, protocol, restore_budget=0):
    """(golden, faulted) committed output rows of one seed."""
    golden_cluster = Cluster(num_brokers=3, seed=seed)
    app = _start(golden_cluster, protocol, restore_budget)
    produce = _paced_producer(golden_cluster, seed)
    for index in range(SLICES):
        produce(index)
        app.run_for(0.3 * HORIZON_MS / SLICES)
    app.run_until_idle(max_steps=50_000)
    golden = committed_records(golden_cluster, ["out"])["out"]

    cluster = Cluster(num_brokers=3, seed=seed)
    app = _start(cluster, protocol, restore_budget)
    cell = ScenarioHarness(
        cluster, app, "instance_loss", CHAOS_SEED,
        invariants=InvariantSuite([]), horizon_ms=HORIZON_MS,
    ).run(workload=_paced_producer(cluster, seed), workload_slices=SLICES)
    assert cell.faults_injected == 1 and cell.converged
    return golden, committed_records(cluster, ["out"])["out"]


def assert_exactly_once(golden, faulted):
    want, got = Counter(golden), Counter(faulted)
    missing = sum((want - got).values())
    surplus = sum((got - want).values())
    assert (missing, surplus) == (0, 0), (
        f"{missing} golden rows missing, {surplus} committed twice or unexpected"
    )


@pytest.mark.parametrize("restore_budget", [0, 500])
def test_cooperative_failover_commits_the_golden_rows(restore_budget):
    """The ledger's configuration, and the same with throttled restores."""
    golden, faulted = failover_rows(101, COOPERATIVE, restore_budget)
    assert len(golden) == TOTAL
    assert_exactly_once(golden, faulted)


@pytest.mark.parametrize("restore_budget", [0, 500])
def test_eager_failover_commits_the_golden_rows(restore_budget):
    """ROADMAP item 1 (b): before the consumer waited for stable offsets,
    seed 101 committed 489 rows twice here, unthrottled."""
    golden, faulted = failover_rows(101, EAGER, restore_budget)
    assert len(golden) == TOTAL
    assert_exactly_once(golden, faulted)

"""Key routing is ``partition_for``, memo or no memo.

The producer's ``send`` and a Streams sink remember where a key went, so
that a repeated key is routed with one dict lookup instead of a hash. A
memo answers by equality, and equal keys are not always the same key to
the partitioner: ``1 == True == 1.0`` hash alike yet ``partition_for``
sends them to three different partitions, and a ``str`` subclass may
redefine equality. These properties hold the rule stated next to
``partition_for`` in ``repro.util``: only keys of exactly the memo's types
are memoised, and the memo never holds more than its cap — forced low
here by a test-side patch, so that the start-over path runs.
"""

from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.util
from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.windows import Window, Windowed
from repro.util import partition_for

from tests.streams.harness import drain_topic, make_cluster


class Name(str):
    """A ``str`` subclass that calls every other ``Name`` equal: a memo
    consulted for it would route one name to another's partition."""

    def __eq__(self, other):
        return isinstance(other, Name) or str.__eq__(self, other)

    def __hash__(self):
        return 0


MIXED_KEYS = [1, True, 1.0, "1", b"1"]

keys = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, -1.0, 2.5]),
    st.text(alphabet="01ab", max_size=2),
    st.binary(max_size=2),
    st.text(alphabet="01ab", max_size=2).map(Name),
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(["", "a"])),
    st.none(),
)

operations = st.lists(keys, min_size=1, max_size=60)


def low_cap(cap=4):
    return mock.patch.object(repro.util, "MEMO_MAX_KEYS", cap, create=True)


@given(operations)
@settings(max_examples=150, deadline=None)
def test_every_send_lands_where_partition_for_says(sends):
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    cluster.create_topic("t", 3)
    table = cluster.partitions_for("t")
    with low_cap():
        producer = Producer(cluster)
        sent = []
        for key in sends:
            tp = producer.send("t", key=key, value=len(sent))
            assert tp == table[partition_for(key, 3)], repr(key)
            sent.append((tp, key))
        producer.flush()
    landed = {
        (tp.partition, record.value): record.key
        for tp in cluster.partitions_for("t")
        for record in cluster.partition_state(tp).leader_log().records()
    }
    for value, (tp, key) in enumerate(sent):
        stored = landed[tp.partition, value]
        assert type(stored) is type(key) and stored == key


def test_equal_keys_of_different_types_each_get_their_own_route():
    """Whichever of ``1``, ``True``, ``1.0``, ``"1"``, ``b"1"`` is sent
    first, the others are routed on their own."""
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.create_topic("t", 32)
    table = cluster.partitions_for("t")
    for order in permutations(MIXED_KEYS):
        producer = Producer(cluster)
        for key in order:
            tp = producer.send("t", key=key)
            assert tp == table[partition_for(key, 32)], order


# -- the Streams sink ------------------------------------------------------------


def run_passthrough(input_keys, partitions=32, one_batch=True):
    """``in`` (one partition) -> ``out``. ``one_batch``: every key of
    ``input_keys`` in one fetched batch, so the sink sees them as one chunk;
    else one batch, so one chunk, per key."""
    cluster = make_cluster(**{"in": 1, "out": partitions})
    builder = StreamsBuilder()
    builder.stream("in").to("out")
    app = KafkaStreams(
        builder.build(),
        cluster,
        StreamsConfig(
            application_id="route",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
        ),
    )
    app.start(1)
    producer = Producer(cluster)
    for number, key in enumerate(input_keys):
        producer.send("in", key=key, value=number, timestamp=float(number),
                      partition=0)
        if not one_batch:
            producer.flush()
    producer.flush()
    cluster.clock.advance(100.0)
    app.run_until_idle(max_steps=20_000)
    return cluster, app


@pytest.mark.parametrize(
    "one_batch", [True, False], ids=["one_chunk", "chunk_each"]
)
def test_equal_keys_of_different_types_reach_their_own_partitions(one_batch):
    keys = MIXED_KEYS + MIXED_KEYS[::-1]
    cluster, app = run_passthrough(keys, one_batch=one_batch)
    out = drain_topic(cluster, "out")
    assert sorted(r.value for r in out) == list(range(len(keys)))
    for record in out:
        assert type(record.key) is type(keys[record.value])
        assert record.partition == partition_for(record.key, 32), repr(record.key)
    app.close()


def held_keys(owner, wanted):
    """How many of ``wanted`` sit as dict keys anywhere in ``owner``'s own
    attributes (dicts, tuples and lists, three levels down)."""
    count = 0
    stack = [(value, 0) for value in vars(owner).values()]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, dict):
            count += sum(1 for key in value if key in wanted)
            children = value.values()
        elif isinstance(value, (tuple, list)):
            children = value
        else:
            continue
        if depth < 3:
            stack.extend((child, depth + 1) for child in children)
    return count


def test_a_sink_memo_stays_bounded_under_endless_distinct_keys():
    windowed = [
        Windowed(f"user-{n % 7}", Window(10.0 * n, 10.0 * n + 10.0))
        for n in range(600)
    ]
    names = [f"key-{n}" for n in range(600)]
    with low_cap(8):
        cluster, app = run_passthrough(windowed + names, partitions=4)
        (instance,) = app.instances
        (task,) = instance.tasks.values()
        # The sink routes through its producer's memo, the one ``send`` keeps.
        assert held_keys(task.producer, set(names)) > 0
        assert held_keys(task.producer, set(windowed)) <= 8
        assert held_keys(task.producer, set(names)) <= 8
    out = drain_topic(cluster, "out")
    assert len(out) == 1200
    for record in out:
        assert record.partition == partition_for(record.key, 4)
    app.close()

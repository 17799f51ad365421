"""Headers are frozen once, where a producer takes them, and shared ever after.

Records with drawn header dicts enter a source topic through both producer
entry points (``send`` copies the caller's dict, ``send_columns`` hands a
column of them over), are polled both ways, run through a pass-through and
a reduce (a scalar operator on the way tries to write into what it is
handed), land in a sink and a changelog, and are read back from a follower
too. Afterwards:

* every header mapping reachable from any log of the cluster is frozen
  (a write through it raises ``TypeError``);
* nothing between ``Producer.send`` and the last reader built another one:
  the pass-through's sink and the reduce's sink, leader and follower, hold
  the *same objects* as the source log, which are what ``poll`` and
  ``poll_batches`` hand out;
* their contents are the drawn dicts, and the dicts the caller kept are
  still the caller's — changing them afterwards reaches nothing.

Traced, the task and the sink stamp copies — frozen ones: an operator's
write raises all the same, and the source log's objects carry no stamp.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.log.record import NO_HEADERS, FrozenHeaders
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.processor import Processor
from repro.streams.suppress import SuppressProcessor, Suppressed
from repro.streams.windows import TimeWindows, Window, Windowed

from tests.streams.harness import (
    drain_topic,
    make_cluster,
    record_path,
    stored_headers,
    vectorised,
)

TOPICS = ("in", "copy", "out")

header_dicts = st.dictionaries(
    st.sampled_from(["a", "b", "created_at", "trace"]),
    st.one_of(st.integers(-3, 3), st.text(max_size=3), st.floats(0.0, 9.0)),
    max_size=3,
)
# One record: (key, its headers, whether it goes through send_columns).
records = st.lists(
    st.tuples(st.sampled_from(["k0", "k1", "k2"]), header_dicts, st.booleans()),
    min_size=1,
    max_size=24,
)


class WritesToHeaders(Processor):
    """A pass-through that tries to write into what it was handed."""

    refused = 0

    def process(self, record):
        with pytest.raises(TypeError):
            record.headers["seen"] = True
        WritesToHeaders.refused += 1
        self.context.forward(record)


def build_topology():
    builder = StreamsBuilder()
    stream = builder.stream("in")
    stream.process(WritesToHeaders).to("copy")
    (
        stream.group_by_key()
        .reduce(lambda latest, value: value, store_name="latest")
        .to_stream()
        .to("out")
    )
    return builder.build()


def produce(cluster, drawn):
    """Record ``i`` carries value ``i``; returns the dicts handed in."""
    producer = Producer(cluster)
    handed = []
    for i, (key, headers, columnar) in enumerate(drawn):
        mine = dict(headers)
        handed.append(mine)
        if columnar:
            producer.send_columns("in", 0, [key], [i], [float(i)], [mine])
        else:
            producer.send("in", key=key, value=i, timestamp=float(i),
                          partition=0, headers=mine)
    producer.flush()
    return handed


def run(drawn, traced=False):
    """Produce ``drawn``, run the topology to idle; returns the cluster and
    the dicts the producer was handed."""
    cluster = make_cluster(**{topic: 1 for topic in TOPICS})
    if traced:
        cluster.enable_tracing()
    app = KafkaStreams(
        build_topology(),
        cluster,
        StreamsConfig(
            application_id="alias",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
        ),
    )
    app.start(1)
    WritesToHeaders.refused = 0
    handed = produce(cluster, drawn)
    app.run_until_idle()
    cluster.clock.advance(50.0)
    app.run_until_idle()
    assert WritesToHeaders.refused == len(drawn)     # inside ``process`` too
    return cluster, handed


@settings(max_examples=15, deadline=None)
@given(drawn=records)
def test_every_reader_shares_the_headers_the_source_log_holds(drawn):
    cluster, handed = run(drawn)

    # What the source log holds: frozen, equal to what was drawn, whichever way in.
    source = cluster.partition_state(TopicPartition("in", 0)).leader_log()
    frozen = [record.headers for record in source.records()]
    assert frozen == [headers for _, headers, _ in drawn]

    # The caller's dicts are still the caller's; nothing they do reaches it.
    for mine in handed:
        mine["x"] = "mutated after send"
        assert type(mine) is dict
    assert frozen == [headers for _, headers, _ in drawn]

    # poll and poll_batches hand out those very objects ...
    polled = drain_topic(cluster, "in")
    consumer = Consumer(cluster)
    consumer.assign([TopicPartition("in", 0)])
    (batch,) = consumer.poll_batches(max_records=100)
    for got in ([r.headers for r in polled], batch.headers(),
                [r.headers for r in batch.records]):
        assert len(got) == len(frozen)
        assert all(a is b for a, b in zip(got, frozen))

    # ... and so do the sinks (value ``i`` names the input record), leader
    # and follower alike. (``send`` stores every empty mapping as the one
    # shared empty.)
    def same(headers, original):
        return headers is original or (not original and headers is NO_HEADERS)

    for topic in ("copy", "out"):
        state = cluster.partition_state(TopicPartition(topic, 0))
        follower = next(b for b in sorted(state.isr) if b != state.leader)
        for log in (state.leader_log(), state.replica_log(follower)):
            outputs = [r for r in log.records() if not r.is_control]
            assert len(outputs) == len(drawn)
            assert all(same(r.headers, frozen[r.value]) for r in outputs)
    changelog = cluster.partition_state(
        TopicPartition("alias-latest-changelog", 0)
    ).leader_log()
    assert [r.headers for r in changelog.records() if not r.is_control]
    assert all(r.headers is NO_HEADERS for r in changelog.records())

    # By type, everywhere: data, changelog, offsets, transaction log — a
    # producer froze them, or the writer carried none.
    everything = list(stored_headers(cluster))
    assert everything
    assert {type(h) for h in everything} == {FrozenHeaders}
    with pytest.raises(TypeError):
        polled[0].headers["x"] = 1


def unstamped(headers):
    return {k: v for k, v in headers.items() if not k.startswith("__")}


@settings(max_examples=5, deadline=None)
@given(drawn=records)
def test_a_traced_run_stamps_frozen_copies(drawn):
    """Tracing must not change what a program may do: the stamped headers
    an operator sees refuse writes like the log's own (checked inside
    ``run``), everything stored is frozen, and the source log's objects —
    shared with every other reader — were stamped by copy, not in place."""
    cluster, _ = run(drawn, traced=True)
    originals = [headers for _, headers, _ in drawn]
    source = cluster.partition_state(TopicPartition("in", 0)).leader_log()
    assert [unstamped(r.headers) for r in source.records()] == originals
    assert not [k for r in source.records() for k in r.headers if k.startswith("__t_")]
    assert {type(h) for h in stored_headers(cluster)} == {FrozenHeaders}
    for topic in ("copy", "out"):
        log = cluster.partition_state(TopicPartition(topic, 0)).leader_log()
        outputs = [r for r in log.records() if not r.is_control]
        assert len(outputs) == len(drawn)
        for record in outputs:
            assert unstamped(record.headers) == originals[record.value]
            assert {"__t_fetched", "__t_processed", "__t_emitted"} <= set(record.headers)


# -- suppress: the one operator that holds headers across records ---------------


class SeesSuppressed(Processor):
    """Downstream of ``suppress``: keeps the header objects it is handed,
    after trying to write through them."""

    seen = []

    def process(self, record):
        with pytest.raises(TypeError):
            record.headers["seen"] = True
        SeesSuppressed.seen.append((record.key, record.value, record.headers))
        self.context.forward(record)


@contextmanager
def absorbed_headers(by_n):
    """Record every header object handed to ``SuppressProcessor._absorb``
    under the ``n`` it carries (one per input record)."""
    absorb = SuppressProcessor._absorb

    def spying(self, keys, values, timestamps, headers, stream_times):
        headers = list(headers)
        for h in headers:
            by_n[h["n"]] = h
        return absorb(self, keys, values, timestamps, headers, stream_times)

    with mock.patch.object(SuppressProcessor, "_absorb", spying):
        yield


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scalar", [False, True], ids=["chunk", "process"])
@pytest.mark.parametrize(
    "policy",
    [Suppressed.until_window_closes(), Suppressed.until_time_limit(15.0)],
    ids=["until_window_closes", "until_time_limit"],
)
def test_a_suppressed_result_carries_the_last_revisions_own_headers(
    policy, scalar, traced
):
    """``suppress`` buffers, per key, the headers of the latest revision it
    absorbed — the object it was handed, not a copy: what it emits *is*
    that object, frozen like every other, on the chunk path and through
    ``process()``, traced (the task's stamped copy) or not (the log's own)."""
    cluster = make_cluster(**{"in": 1, "out": 1})
    if traced:
        cluster.enable_tracing()
    builder = StreamsBuilder()
    (
        builder.stream("in")
        .group_by_key()
        .windowed_by(TimeWindows.of(10.0).grace(10.0))
        .count(store_name="cells")
        .suppress(policy)
        .to_stream()
        .process(SeesSuppressed)
        .to("out")
    )
    SeesSuppressed.seen = []
    by_n = {}
    inputs_of = {}          # windowed key -> [n of each input, in order]
    with ExitStack() as stack:
        stack.enter_context(absorbed_headers(by_n))
        if scalar:
            stack.enter_context(record_path())
        app = KafkaStreams(
            builder.build(),
            cluster,
            StreamsConfig(
                application_id="suppress-alias",
                processing_guarantee=EXACTLY_ONCE,
                commit_interval_ms=20.0,
            ),
        )
        app.start(1)
        producer = Producer(cluster)
        for n in range(62):
            # Sixty in-order records, then one far ahead per key to close
            # every window they opened.
            key, timestamp = f"k{n % 2}", float(n) if n < 60 else 1_000.0
            producer.send("in", key=key, value=n, timestamp=timestamp,
                          partition=0, headers={"n": n, "origin": "test"})
            start = timestamp // 10 * 10
            inputs_of.setdefault(
                Windowed(key, Window(start, start + 10)), []
            ).append(n)
            if n % 7 == 6:              # several chunks, cut mid-window
                producer.flush()
                app.run_until_idle()
        producer.flush()
        cluster.clock.advance(50.0)
        app.run_until_idle()
        (suppress,) = [
            p for task in app.instances[0].tasks.values()
            for p in task.processors().values()
            if isinstance(p, SuppressProcessor)
        ]
        assert vectorised(suppress) is not scalar
        app.close()

    assert len(by_n) == 62
    seen = SeesSuppressed.seen
    assert len(seen) >= 10                  # five closed windows a key, at least
    for key, count, headers in seen:
        # A count of c is the cell's c-th input: the revision it came from.
        n = inputs_of[key][count - 1]
        assert headers["n"] == n
        assert headers is by_n[n], "suppress emitted a copy of the headers"
        assert type(headers) is FrozenHeaders
    if policy.mode == "until_window_closes":
        # Final results only: each is the last revision of its window.
        assert all(count == len(inputs_of[key]) == 5 for key, count, _ in seen)
        assert len(seen) == 12
    assert suppress.records_suppressed > 0

    source = cluster.partition_state(TopicPartition("in", 0)).leader_log()
    originals = [record.headers for record in source.records()]
    for key, count, headers in seen:
        original = originals[inputs_of[key][count - 1]]
        if traced:
            assert headers is not original
            assert unstamped(headers) == unstamped(original)
        else:
            assert headers is original      # nothing built between log and here
    results = drain_topic(cluster, "out")
    assert [(r.key, r.value) for r in results] == [(k, c) for k, c, _ in seen]
    for record, (_key, _count, headers) in zip(results, seen):
        assert type(record.headers) is FrozenHeaders
        assert unstamped(record.headers) == unstamped(headers)
        if not traced:
            assert record.headers is headers
        with pytest.raises(TypeError):
            record.headers["x"] = 1

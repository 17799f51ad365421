"""Chunk execution must be unobservable in committed output.

These properties run the same workload through the same topology twice —
once with every task forced onto the record path by a test-side patch
(scalar records through the processor graph; the product has no switch for
it) and once as the runtime runs it (column chunks through the fused batch
path) — and require the
committed output records (key, value, timestamp, headers, partition
order) and the final state-store contents to be identical. The Figure 5
reduce topology is the anchor case from the paper's throughput
experiment; a stateless chain exercises the fused filter/flatMap column
pass, and a windowed count exercises the grouped window scan with
per-record expiry bounds. The Section 5 completeness path is covered
operator by operator: stream-table joins (with table tombstones and null
stream keys), and both suppress modes, whose emissions depend on the
stream time each record is processed at — including the advance made by
records that were never forwarded to them.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.clients.producer import Producer
from repro.config import AT_LEAST_ONCE, EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.suppress import SuppressProcessor, Suppressed
from repro.streams.windows import TimeWindows

from tests.streams.harness import drain_topic, make_cluster, record_path

KEYS = ["a", "b", "c", "d"]


@st.composite
def workloads(draw):
    """(key, value, timestamp) triples with mild timestamp disorder, so
    the timestamp-ordered queue choice and window revision paths both get
    exercised. Some keys are null (operators drop those records, but they
    still advance stream time), and one far-future record ends the run, so
    that several windows close on the same record."""
    n = draw(st.integers(min_value=1, max_value=60))
    events = []
    base = 0.0
    for _ in range(n):
        base += draw(st.floats(min_value=0.0, max_value=20.0))
        jitter = draw(st.floats(min_value=-15.0, max_value=0.0))
        events.append(
            (
                draw(st.sampled_from(KEYS + [None])),
                draw(st.integers(min_value=-5, max_value=5)),
                max(0.0, base + jitter),
            )
        )
    events.append((draw(st.sampled_from(KEYS)), 1, base + 1_000.0))
    return events


@st.composite
def table_updates(draw):
    """(key, row-or-tombstone, timestamp) updates for the table side of a
    join, interleaved in time with :func:`workloads`."""
    n = draw(st.integers(min_value=0, max_value=20))
    return [
        (
            draw(st.sampled_from(KEYS + [None])),
            draw(st.sampled_from([None, "x", "y", "z"])),
            draw(st.floats(min_value=0.0, max_value=600.0)),
        )
        for _ in range(n)
    ]


def run_topology(build, events, batch, guarantee, partitions=1,
                 table=(), commit_interval_ms=20.0):
    with nullcontext() if batch else record_path():
        result = _run_topology(
            build, events, guarantee, partitions, table, commit_interval_ms
        )
    assert batch or result[2] == 0, "the reference run took chunks"
    return result


def _run_topology(build, events, guarantee, partitions, table,
                  commit_interval_ms):
    cluster = make_cluster(input=partitions, table=partitions, output=partitions)
    app = KafkaStreams(
        build(),
        cluster,
        StreamsConfig(
            application_id="equiv",
            processing_guarantee=guarantee,
            commit_interval_ms=commit_interval_ms,
            transaction_timeout_ms=300.0,
        ),
    )
    app.start(1)
    producer = Producer(cluster)
    for topic, records in (("table", table), ("input", events)):
        for key, value, timestamp in records:
            producer.send(topic, key=key, value=value, timestamp=timestamp)
    producer.flush()
    cluster.clock.advance(400.0)
    app.run_until_idle(max_steps=20_000)
    cluster.clock.advance(400.0)
    app.run_until_idle(max_steps=20_000)
    output = [
        (r.key, r.value, r.timestamp, dict(r.headers), r.headers["__partition"])
        for r in drain_topic(cluster, "output")
    ]
    stores = {}
    for instance in app.instances:
        for task_id, task in instance.tasks.items():
            for name, store in task.stores().items():
                stores[(repr(task_id), name)] = dict(store._data)
            for name, processor in task.processors().items():
                if isinstance(processor, SuppressProcessor):
                    # Insertion order is part of the contract: it is the
                    # order in which simultaneously closing windows emit.
                    stores[(repr(task_id), name)] = (
                        list(processor._buffer.items()),
                        sorted(processor._index),
                    )
    fastpath = cluster.metrics.counter("streams.batch_fastpath_total").value
    app.close()
    return output, stores, fastpath


def build_reduce():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .reduce(lambda agg, v: agg + v, store_name="sums")
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_stateless_chain():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .filter(lambda k, v: v != 0)
        .flat_map_values(lambda v: [v, v * 10])
        .map_values(lambda v: v + 1)
        .to("output")
    )
    return builder.build()


def build_windowed_count(windows=TimeWindows.of(25.0).grace(10.0)):
    def build():
        builder = StreamsBuilder()
        (
            builder.stream("input")
            .group_by_key()
            .windowed_by(windows)
            .count(store_name="wcounts")
            .to_stream()
            .to("output")
        )
        return builder.build()

    return build


def build_filtered_windowed_count():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .filter(lambda k, v: v > 0)
        .flat_map_values(lambda v: [v] * (v % 3))
        .group_by_key()
        .windowed_by(TimeWindows.of(25.0).grace(10.0))
        .count(store_name="wcounts")
        .to_stream()
        .to("output")
    )
    return builder.build()


@pytest.mark.parametrize("guarantee", [EXACTLY_ONCE, AT_LEAST_ONCE])
@given(workloads())
@settings(max_examples=10, deadline=None)
def test_reduce_topology_batch_equals_scalar(guarantee, events):
    """Figure 5's reduce topology: committed output and final store
    contents are byte-identical on the chunk path and the record path."""
    scalar_out, scalar_stores, _ = run_topology(
        build_reduce, events, batch=False, guarantee=guarantee
    )
    batch_out, batch_stores, fastpath = run_topology(
        build_reduce, events, batch=True, guarantee=guarantee
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events), "batch run left the columnar fast path"


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_stateless_chain_batch_equals_scalar(events):
    """filter -> flatMapValues -> mapValues fused into column passes emits
    exactly the scalar record sequence."""
    scalar_out, _, _ = run_topology(
        build_stateless_chain, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, _, fastpath = run_topology(
        build_stateless_chain, events, batch=True, guarantee=EXACTLY_ONCE
    )
    assert batch_out == scalar_out
    assert fastpath == len(events)


@pytest.mark.parametrize(
    "windows",
    [
        TimeWindows.of(25.0).grace(10.0),
        TimeWindows.of(25.0).advance_by(10.0).grace(10.0),
    ],
    ids=["tumbling", "hopping"],
)
@given(workloads())
@settings(max_examples=10, deadline=None)
def test_windowed_count_batch_equals_scalar(windows, events):
    """The grouped window scan replays scalar stream-time advance exactly:
    same revisions, same late-record drops, same surviving windows."""
    build = build_windowed_count(windows)
    scalar_out, scalar_stores, _ = run_topology(
        build, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, batch_stores, _ = run_topology(
        build, events, batch=True, guarantee=EXACTLY_ONCE
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_filtered_windowed_count_batch_equals_scalar(events):
    """Records a filter or flatMap removed upstream still advanced stream
    time: the window scan drops the same late records either way."""
    scalar_out, scalar_stores, _ = run_topology(
        build_filtered_windowed_count, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, batch_stores, fastpath = run_topology(
        build_filtered_windowed_count, events, batch=True, guarantee=EXACTLY_ONCE
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events)


def build_table_join(left_join):
    def build():
        builder = StreamsBuilder()
        table = builder.table("table", store_name="rows")
        stream = builder.stream("input")
        join = stream.left_join if left_join else stream.join
        (
            join(table, lambda value, row: (value, row))
            .select_key(lambda key, joined: joined[1])
            .to("output")
        )
        return builder.build()

    return build


def build_windowed_count_suppressed():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        # Grace above the window size: a late record can open an earlier
        # window after a later one was buffered, so close-time order and
        # buffer-insertion order differ.
        .windowed_by(TimeWindows.of(25.0).grace(40.0))
        .count(store_name="wcounts")
        .suppress(Suppressed.until_window_closes())
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_count_time_limited():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .count(store_name="counts")
        .suppress(Suppressed.until_time_limit(30.0))
        .to_stream()
        .to("output")
    )
    return builder.build()


@pytest.mark.parametrize("left_join", [False, True])
@given(workloads(), table_updates())
@settings(max_examples=10, deadline=None)
def test_table_join_batch_equals_scalar(left_join, events, table):
    """stream ⋈ table → select_key: table rows come and go (tombstones)
    between stream records, null-keyed records on either side are dropped,
    and the two inputs of the one task interleave by timestamp."""
    build = build_table_join(left_join)
    scalar_out, scalar_stores, _ = run_topology(
        build, events, batch=False, guarantee=EXACTLY_ONCE, table=table
    )
    batch_out, batch_stores, fastpath = run_topology(
        build, events, batch=True, guarantee=EXACTLY_ONCE, table=table
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events) + len(table)


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_suppress_until_window_closes_batch_equals_scalar(events):
    """Only final results, each emitted on the record whose stream time
    closed its window — null-keyed records included — and windows closing
    together leave in the order they were first buffered."""
    scalar_out, scalar_stores, _ = run_topology(
        build_windowed_count_suppressed, events, batch=False,
        guarantee=EXACTLY_ONCE,
    )
    batch_out, batch_stores, fastpath = run_topology(
        build_windowed_count_suppressed, events, batch=True,
        guarantee=EXACTLY_ONCE,
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events)


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_suppress_until_time_limit_batch_equals_scalar(events):
    """At most one consolidated Change per key per 30 ms of stream time.
    A commit flushes this buffer, so its output is a function of where
    commits fall; one commit after the whole input keeps that the same in
    both runs (batch commits land on chunk boundaries)."""
    scalar_out, scalar_stores, _ = run_topology(
        build_count_time_limited, events, batch=False,
        guarantee=EXACTLY_ONCE, commit_interval_ms=500.0,
    )
    batch_out, batch_stores, fastpath = run_topology(
        build_count_time_limited, events, batch=True,
        guarantee=EXACTLY_ONCE, commit_interval_ms=500.0,
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events)

"""Vectorised chunk routines must be unobservable in committed output.

Every task processes column chunks; an operator's meaning is its scalar
``process``, which the base ``Processor.process_batch`` walks a chunk
through. These properties run the same workload through the same topology
twice — once with every vectorised ``process_batch`` override swapped for
that base walk by a test-side patch (``record_path()``; the product has no
switch for it) and once as the runtime runs it — and require the committed
output records (key, value, timestamp, headers, partition order) and the
final state-store contents to be identical. The Figure 5 reduce topology is
the anchor case from the paper's throughput experiment; a stateless chain
exercises the fused filter/map/selectKey column passes, and a windowed count
exercises the grouped window scan with per-record expiry bounds. The
Section 5 completeness path is covered operator by operator: stream-table
joins (with table tombstones and null stream keys), and both suppress
modes, whose emissions depend on the stream time each record is processed
at — including the advance made by records that were never forwarded to
them.

The walk itself — forward-and-drain, stream time per position, the
commit-flush cascade — has a reference too: ``ReferenceTask``, a test-side
fold of the sub-topology over its input one record at a time through
``Processor.process`` alone. The cases at the end of the file (a
scalar-only operator between vectorised ones, two commit-time forwarders in
a row committed once, a speculative app whose upstream aborts) must equal
it.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    ProducerConfig,
    StreamsConfig,
)
from repro.streams import JoinWindows, KafkaStreams, StreamsBuilder
from repro.streams.suppress import SuppressProcessor, Suppressed
from repro.streams.windows import TimeWindows

from tests.streams.harness import (
    ReferenceTask,
    Ticker,
    drain_topic,
    make_cluster,
    merge_by_timestamp,
    record_path,
)

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
        return _run_topology(
            build, events, guarantee, partitions, table, commit_interval_ms
        )


def _run_topology(build, events, guarantee, partitions, table,
                  commit_interval_ms):
    cluster = make_cluster(
        input=partitions, table=partitions, output=partitions, other=partitions
    )
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
    output, stores = observe(cluster, app)
    fastpath = cluster.metrics.counter("streams.batch_fastpath_total").value
    counters = {name: app.metric_total(name) for name in COUNTERS}
    app.close()
    return output, stores, fastpath, counters


#: Processor counters the chunk path adds up once per chunk: the window
#: conservation law reads ``dropped_records``, the revision-processing
#: example prints ``revisions_emitted``.
COUNTERS = (
    "dropped_records", "revisions_emitted", "records_suppressed",
    "records_emitted",
)


def observe(cluster, app):
    """Committed output of both sink topics, and every task's state."""
    output = [
        (r.topic, r.partition, r.key, r.value, r.timestamp, dict(r.headers))
        for topic in ("output", "other")
        for r in drain_topic(cluster, topic)
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
    return output, stores


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
        .map(lambda k, v: (k, v * 10))
        .select_key(lambda k, v: (k, v % 3))
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
        .map_values(lambda v: v % 3)
        .filter(lambda k, v: v != 0)
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
    scalar_out, scalar_stores, _, _ = run_topology(
        build_reduce, events, batch=False, guarantee=guarantee
    )
    batch_out, batch_stores, fastpath, _ = run_topology(
        build_reduce, events, batch=True, guarantee=guarantee
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert fastpath == len(events), "batch run left the columnar fast path"


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_stateless_chain_batch_equals_scalar(events):
    """filter -> map -> selectKey -> mapValues fused into column passes
    emits exactly the scalar record sequence."""
    scalar_out, _, _, _ = run_topology(
        build_stateless_chain, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, _, fastpath, _ = run_topology(
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
    same revisions, same late-record drops (and the same counts of both),
    same surviving windows."""
    build = build_windowed_count(windows)
    scalar_out, scalar_stores, _, scalar_counters = run_topology(
        build, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, batch_stores, _, batch_counters = run_topology(
        build, events, batch=True, guarantee=EXACTLY_ONCE
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert batch_counters == scalar_counters


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_filtered_windowed_count_batch_equals_scalar(events):
    """Records the filters removed upstream still advanced stream time:
    the window scan drops the same late records either way."""
    scalar_out, scalar_stores, _, _ = run_topology(
        build_filtered_windowed_count, events, batch=False, guarantee=EXACTLY_ONCE
    )
    batch_out, batch_stores, fastpath, _ = run_topology(
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
    scalar_out, scalar_stores, _, _ = run_topology(
        build, events, batch=False, guarantee=EXACTLY_ONCE, table=table
    )
    batch_out, batch_stores, fastpath, _ = run_topology(
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
    scalar_out, scalar_stores, _, scalar_counters = run_topology(
        build_windowed_count_suppressed, events, batch=False,
        guarantee=EXACTLY_ONCE,
    )
    batch_out, batch_stores, fastpath, batch_counters = run_topology(
        build_windowed_count_suppressed, events, batch=True,
        guarantee=EXACTLY_ONCE,
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert batch_counters == scalar_counters
    assert batch_counters["records_emitted"] == len(batch_out)
    assert fastpath == len(events)


@given(workloads())
@settings(max_examples=10, deadline=None)
def test_suppress_until_time_limit_batch_equals_scalar(events):
    """At most one consolidated Change per key per 30 ms of stream time.
    A commit flushes this buffer, so its output is a function of where
    commits fall; one commit after the whole input keeps that the same in
    both runs (batch commits land on chunk boundaries)."""
    scalar_out, scalar_stores, _, scalar_counters = run_topology(
        build_count_time_limited, events, batch=False,
        guarantee=EXACTLY_ONCE, commit_interval_ms=500.0,
    )
    batch_out, batch_stores, fastpath, batch_counters = run_topology(
        build_count_time_limited, events, batch=True,
        guarantee=EXACTLY_ONCE, commit_interval_ms=500.0,
    )
    assert batch_out == scalar_out
    assert batch_stores == scalar_stores
    assert batch_counters == scalar_counters
    assert batch_counters["records_emitted"] == len(batch_out)
    assert fastpath == len(events)


# -- the walk against a record-at-a-time fold ---------------------------------------


def reference_fold(build, events, table=()):
    """What the single-partition app must commit and hold after the whole
    input and one commit, and how many records its tasks read. Each
    sub-topology is a ``ReferenceTask`` over the timestamp-ordered merge
    of the topics it reads (ties to the partition that sorts first, FIFO
    within one), folded once every sub-topology writing to those topics
    has been: what one writes to a repartition topic, in that order, is
    the next one's input."""
    written = {"input": list(events), "table": list(table)}
    stores, read = {}, 0
    pending = build().sub_topologies()
    while pending:
        sub = next(
            sub for sub in pending
            if not any(sub.source_topics & other.sink_topics for other in pending)
        )
        pending.remove(sub)
        queues = {
            TopicPartition(topic, 0):
                [(topic, *record) for record in written.get(topic, ())]
            for topic in sub.source_topics
        }
        merged = [record for _, record in merge_by_timestamp(queues, lambda r: r[3])]
        read += len(merged)
        task = ReferenceTask(sub)
        task.run(merged)
        task.commit()
        for topic, *record in task.output:
            written.setdefault(topic, []).append(record)
        stores.update(
            (name, dict(store._data)) for name, store in task._stores.items()
        )
    return (
        [(topic, *record) for topic in ("output", "other")
         for record in written.get(topic, ())],
        stores,
        read,
    )


def assert_equals_walk_and_fold(build, events, table=()):
    """Chunk run == base-walk run (everything), and == the fold (output
    key / value / timestamp per sink topic, store contents). One commit
    after the whole input, so commit-time flushes see the same state."""
    walk_out, walk_stores, _, _ = run_topology(
        build, events, batch=False, guarantee=EXACTLY_ONCE, table=table,
        commit_interval_ms=500.0,
    )
    out, stores, fastpath, _ = run_topology(
        build, events, batch=True, guarantee=EXACTLY_ONCE, table=table,
        commit_interval_ms=500.0,
    )
    assert out == walk_out
    assert stores == walk_stores
    fold_out, fold_stores, read = reference_fold(build, events, table)
    assert fastpath == read
    assert [
        (topic, k, v, ts) for topic, _, k, v, ts, _ in out
    ] == fold_out
    assert {
        name: data for (_, name), data in stores.items() if name in fold_stores
    } == fold_stores


def build_branch_count():
    """vectorised filter -> scalar-only process node with two vectorised
    children (filter -> count, filter -> map_values): the scalar node
    hands each child one chunk per input chunk."""
    builder = StreamsBuilder()
    ticked = builder.stream("input").filter(lambda k, v: v != 0).process(Ticker)
    (
        ticked.filter(lambda k, v: abs(v) < 3)
        .group_by_key()
        .count(store_name="small")
        .to_stream()
        .to("output")
    )
    ticked.filter(lambda k, v: abs(v) >= 3 and v > 0).map_values(
        lambda v: v * 100
    ).to("other")
    return builder.build()


def build_stream_join_windowed_count():
    """scalar-only stream-stream left join (unmatched results wait for
    stream time to pass window + grace) -> vectorised map_values ->
    vectorised windowed count, whose late-record drops depend on the
    stream time each join result was forwarded at."""
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .left_join(
            builder.stream("table"),
            lambda left, right: (left, right),
            JoinWindows.of(15.0).grace(10.0),
        )
        .map_values(lambda pair: pair[0])
        .group_by_key()
        .windowed_by(TimeWindows.of(25.0).grace(10.0))
        .count(store_name="wcounts")
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_table_regroup_count():
    """vectorised table source -> scalar-only group_by map (a row that
    changes its group forwards a retraction and an accumulation) ->
    repartition -> scalar-only table count (subtractor, then adder) ->
    vectorised to_stream: KTable re-aggregation over two sub-topologies."""
    builder = StreamsBuilder()
    (
        builder.table("table", store_name="rows")
        .group_by(lambda key, row: (row, key))
        .count(store_name="keys_per_row")
        .to_stream()
        .to("output")
    )
    return builder.build()


@pytest.mark.parametrize(
    "build",
    [build_branch_count, build_stream_join_windowed_count,
     build_table_regroup_count],
    ids=["branch", "stream_join", "table_regroup"],
)
@given(workloads(), table_updates())
@settings(max_examples=10, deadline=None)
def test_scalar_only_operator_between_vectorised_ones(build, events, table):
    assert_equals_walk_and_fold(build, events, table)


def build_stream_aggregate(kind):
    """Figure 5's reduce and its two siblings over the same grouped scan;
    the aggregate's ``None`` result (on a zero) makes the next update of
    that key start from the initializer again. Downstream of the reduce, a
    windowed count drops late updates by the stream time each one was
    forwarded with — the null-keyed records' advance included."""
    def build():
        builder = StreamsBuilder()
        grouped = builder.stream("input").group_by_key()
        if kind == "count":
            table = grouped.count(store_name="agg")
        elif kind == "aggregate":
            table = grouped.aggregate(
                tuple, lambda k, v, agg: None if v == 0 else agg + (v,),
                store_name="agg",
            )
        else:
            table = grouped.reduce(lambda agg, v: agg + v, store_name="agg")
        stream = table.to_stream().map_values(lambda value: value)
        if kind == "reduce_windowed":
            stream = (
                stream.group_by_key()
                .windowed_by(TimeWindows.of(25.0).grace(10.0))
                .count(store_name="wcounts")
                .to_stream()
            )
        stream.to("output")
        return builder.build()

    return build


@pytest.mark.parametrize("kind", ["reduce", "count", "aggregate", "reduce_windowed"])
@given(workloads())
@settings(max_examples=15, deadline=None)
def test_stream_aggregates_with_null_keys_equal_fold(kind, events):
    """Null-keyed records interleaved with keyed ones: the grouped scan
    forwards the keyed positions, each with the stream time the fold saw."""
    assert_equals_walk_and_fold(build_stream_aggregate(kind), events)


def build_suppress_chain():
    """Two time-limited suppresses in a row: at a commit the first one's
    flush feeds the second one's buffer, which must flush it in the same
    commit."""
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .count(store_name="counts")
        .suppress(Suppressed.until_time_limit(30.0))
        .suppress(Suppressed.until_time_limit(45.0))
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_left_join_suppress():
    """A stream-stream left join feeding a count and a suppress whose time
    limit no workload reaches, so only a commit flushes it. The left side's
    commit hook emits its unmatched records whose window has closed; the
    left side is the table-update stream here, so the input's last record
    (after every update) closes its windows and only that hook emits
    them."""
    builder = StreamsBuilder()
    (
        builder.stream("table")
        .left_join(
            builder.stream("input"),
            lambda left, right: (left, right),
            JoinWindows.of(15.0).grace(10.0),
        )
        .group_by_key()
        .count(store_name="counts")
        .suppress(Suppressed.until_time_limit(10_000.0))
        .to_stream()
        .to("output")
    )
    return builder.build()


def run_one_commit(build, events, table):
    """The chunk-executed app over the whole input, then exactly one
    commit: its committed output (topic, key, value, timestamp)."""
    cluster = make_cluster(input=1, table=1, output=1, other=1)
    app = KafkaStreams(
        build(),
        cluster,
        StreamsConfig(
            application_id="equiv",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=1e9,
        ),
    )
    app.start(1)
    producer = Producer(cluster)
    for topic, records in (("table", table), ("input", events)):
        for key, value, timestamp in records:
            producer.send(topic, key=key, value=value, timestamp=timestamp)
    producer.flush()
    while app.step():
        pass
    (instance,) = app.instances
    instance.commit()
    output, _ = observe(cluster, app)
    app.close()
    return [(topic, k, v, ts) for topic, _, k, v, ts, _ in output]


@pytest.mark.parametrize(
    "build", [build_suppress_chain, build_left_join_suppress],
    ids=["suppress_chain", "left_join_suppress"],
)
@given(workloads(), table_updates())
@settings(max_examples=10, deadline=None)
def test_one_commit_runs_the_commit_hooks_in_topology_order(build, events, table):
    """What one operator's commit hook forwards reaches the next one's
    before that hook runs, so one commit commits what the fold's one commit
    emits. A later commit would flush anything left behind, so only the
    output of the first commit shows the order."""
    if build is not build_left_join_suppress:
        table = []
    fold_out, _, _ = reference_fold(build, events, table)
    assert run_one_commit(build, events, table) == fold_out


def run_speculative(events, aborts, batch):
    """The reduce app, speculative, below a transactional producer that
    writes seven records a transaction and aborts those ``aborts`` picks;
    the app processes each transaction while it is still open."""
    with nullcontext() if batch else record_path():
        cluster = make_cluster(input=1, output=1, other=1)
        app = KafkaStreams(
            build_reduce(),
            cluster,
            StreamsConfig(
                application_id="equiv",
                processing_guarantee=EXACTLY_ONCE,
                commit_interval_ms=20.0,
                transaction_timeout_ms=300.0,
                speculative=True,
            ),
        )
        app.start(1)
        (instance,) = app.instances
        upstream = Producer(cluster, ProducerConfig(transactional_id="upstream"))
        upstream.init_transactions()
        committed = []
        for number, start in enumerate(range(0, len(events), 7)):
            transaction = events[start:start + 7]
            upstream.begin_transaction()
            for key, value, timestamp in transaction:
                upstream.send("input", key=key, value=value, timestamp=timestamp)
            upstream.flush()
            assert app.step() == len(transaction)     # speculated on open data
            cluster.clock.advance(30.0)
            deferred = instance.commits_deferred
            app.step()
            assert instance.commits_deferred > deferred
            if aborts[number % len(aborts)]:
                upstream.abort_transaction()
            else:
                upstream.commit_transaction()
                committed.extend(transaction)
            cluster.clock.advance(30.0)
            app.run_until_idle(max_steps=20_000)
        output, stores = observe(cluster, app)
        rollbacks = instance.speculation_rollbacks
        app.close()
    return output, stores, rollbacks, committed


@given(workloads(), st.lists(st.booleans(), min_size=1, max_size=5))
@settings(max_examples=10, deadline=None)
def test_speculative_app_below_an_aborting_upstream(events, aborts):
    """Commit dependencies are read per fetched batch: a chunk that held
    records of an aborted upstream transaction rolls back, and what is
    committed is the fold over the committed transactions alone."""
    walk_out, walk_stores, _, _ = run_speculative(events, aborts, batch=False)
    out, stores, rollbacks, committed = run_speculative(events, aborts, batch=True)
    assert out == walk_out
    assert stores == walk_stores
    transactions = -(-len(events) // 7)
    assert rollbacks == sum(
        aborts[number % len(aborts)] for number in range(transactions)
    )
    fold_out, fold_stores, _ = reference_fold(build_reduce, committed)
    assert [(topic, k, v, ts) for topic, _, k, v, ts, _ in out] == fold_out
    assert {name: data for (_, name), data in stores.items()} == fold_stores

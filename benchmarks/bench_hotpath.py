"""Hot-path microbenchmark: wall-clock records/sec through produce → fetch → process.

Unlike the Figure 5 benchmarks (which verify *virtual-time* shapes against
the paper), this bench measures the real Python cost of the three hot loops
the batch-aware read-path work targets:

* ``fetch`` — paging a read-committed consumer through a large log full of
  interleaved committed/aborted transactions and control markers. There is
  one fetch (the visible run of the log's stored batches, visibility
  decided per batch against the aborted-transaction index); the first row
  also lists the scalar ``result.records`` view of every page, the second
  row only counts the batch, so the pair prices per-record materialization.
* ``produce`` — a tight `Producer.send` loop (metadata + leader routing per
  record, batch assembly, sequence accounting).
* ``streams`` — the full Figure 5 scenario (generator → stateful reduce →
  read-committed verifier) timed in wall-clock seconds. The app has one
  execution mode (chunks); the second row swaps the *benchmark's* own
  generator and verifier for their columnar forms, so the pair prices the
  per-record work of the clients around the app, not of the app.

Numbers are recorded in EXPERIMENTS.md ("Hot-path microbenchmark"); CI runs
a scaled-down smoke pass (HOTPATH_SCALE) so regressions fail loudly.

Methodology: timed regions run with GC deferred (as ``timeit`` does) —
collection pauses trace the entire simulated in-memory cluster, a cost
that scales with accumulated log size rather than with the loop under
measurement — and the fetch/streams rows take the best of three rounds to
reject scheduler noise. Both policies apply identically to every row, so
within-table ratios are apples to apples.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager

from harness import WallTimer, make_bench_cluster, run_streams_reduce, write_bench_json
from harness_report import record_table

from repro.broker.fetch import fetch
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, READ_COMMITTED, ProducerConfig
from repro.log.partition_log import PartitionLog
from repro.log.record import ABORT_MARKER, COMMIT_MARKER, Record, RecordBatch
from repro.metrics.reporter import format_table

# Scale factor for workload sizes; CI smoke runs use e.g. HOTPATH_SCALE=0.05.
SCALE = float(os.environ.get("HOTPATH_SCALE", "1.0"))


def _scaled(n: int) -> int:
    return max(1, int(n * SCALE))


@contextmanager
def deferred_gc():
    """Disable GC for a timed region (collect first so the region starts
    clean), restoring it afterwards. See the module docstring."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- scenario builders -------------------------------------------------------


def build_txn_log(
    total_records: int,
    txn_size: int = 50,
    producers: int = 4,
    abort_every: int = 7,
) -> PartitionLog:
    """A log of interleaved transactions; every ``abort_every``-th aborts."""
    log = PartitionLog("bench-hotpath")
    seqs = {pid: 0 for pid in range(1, producers + 1)}
    appended = 0
    txn_no = 0
    while appended < total_records:
        pid = (txn_no % producers) + 1
        batch = [
            Record(key=(appended + i) % 1024, value=appended + i)
            for i in range(txn_size)
        ]
        log.append_batch(
            RecordBatch(
                batch,
                producer_id=pid,
                producer_epoch=0,
                base_sequence=seqs[pid],
                is_transactional=True,
            )
        )
        seqs[pid] += txn_size
        appended += txn_size
        marker = ABORT_MARKER if txn_no % abort_every == 0 else COMMIT_MARKER
        log.append_marker(marker, pid, 0)
        txn_no += 1
    log.high_watermark = log.log_end_offset
    return log


def run_fetch_scenario(
    total_records: int,
    page_size: int = 500,
    rounds: int = 3,
    scalar_view: bool = True,
):
    """Page a read-committed consumer through the whole log.

    With ``scalar_view`` every page is also materialized through
    ``result.records`` (what a record-at-a-time caller pays: the view's
    ``len()`` alone is free, so the page is listed); without it the page
    stays a :class:`ColumnarBatch` — the visible run of the log's stored
    batches — and only its size is read.
    """
    log = build_txn_log(total_records)
    best = float("inf")
    position = 0
    returned = 0
    for _ in range(rounds):
        with deferred_gc():
            start = time.perf_counter()
            position = 0
            returned = 0
            while True:
                result = fetch(
                    log,
                    position,
                    max_records=page_size,
                    isolation_level=READ_COMMITTED,
                )
                if scalar_view:
                    returned += len(list(result.records))
                else:
                    returned += result.valid_count
                if result.next_offset == position:
                    break
                position = result.next_offset
            best = min(best, time.perf_counter() - start)
    return {
        "scanned": position,
        "returned": returned,
        "elapsed_s": best,
        "records_per_sec": position / best if best > 0 else 0.0,
    }


def run_produce_scenario(total_records: int, partitions: int = 8):
    """A tight Producer.send loop against a live cluster."""
    cluster = make_bench_cluster()
    cluster.create_topic("bench-produce", partitions)
    producer = Producer(cluster, ProducerConfig(client_id="bench-hotpath"))
    with deferred_gc():
        start = time.perf_counter()
        for i in range(total_records):
            producer.send("bench-produce", key=i & 1023, value=i)
        producer.flush()
        elapsed = time.perf_counter() - start
    return {
        "sent": producer.records_sent,
        "elapsed_s": elapsed,
        "records_per_sec": producer.records_sent / elapsed if elapsed else 0.0,
    }


def run_streams_scenario(
    duration_ms: float,
    rate_per_sec: float = 10_000.0,
    columnar_clients: bool = False,
    rounds: int = 5,
):
    """The Figure 5 reduce scenario, timed in wall-clock seconds
    (best of ``rounds`` full runs — the simulation is deterministic, so
    min-of-N isolates the loop cost from scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        with deferred_gc():
            start = time.perf_counter()
            result = run_streams_reduce(
                output_partitions=10,
                guarantee=EXACTLY_ONCE,
                commit_interval_ms=100.0,
                duration_ms=duration_ms,
                rate_per_sec=rate_per_sec,
                columnar_clients=columnar_clients,
            )
            best = min(best, time.perf_counter() - start)
    return {
        "records": result.records,
        "outputs": result.extra["outputs_observed"],
        "elapsed_s": best,
        "records_per_sec": result.records / best if best else 0.0,
    }


def run_all():
    rows = []
    timer = WallTimer().__enter__()
    fetch_stats = run_fetch_scenario(_scaled(150_000))
    rows.append(
        [
            "fetch (read_committed, scalar view)",
            fetch_stats["scanned"],
            f"{fetch_stats['elapsed_s']:.2f}",
            round(fetch_stats["records_per_sec"]),
        ]
    )
    fetch_col_stats = run_fetch_scenario(_scaled(150_000), scalar_view=False)
    rows.append(
        [
            "fetch (read_committed, columnar)",
            fetch_col_stats["scanned"],
            f"{fetch_col_stats['elapsed_s']:.2f}",
            round(fetch_col_stats["records_per_sec"]),
        ]
    )
    produce_stats = run_produce_scenario(_scaled(30_000))
    rows.append(
        [
            "produce (idempotent)",
            produce_stats["sent"],
            f"{produce_stats['elapsed_s']:.2f}",
            round(produce_stats["records_per_sec"]),
        ]
    )
    streams_duration = max(100.0, 2000.0 * SCALE)
    streams_stats = run_streams_scenario(duration_ms=streams_duration)
    rows.append(
        [
            "streams reduce (EOS)",
            streams_stats["records"],
            f"{streams_stats['elapsed_s']:.2f}",
            round(streams_stats["records_per_sec"]),
        ]
    )
    streams_columnar_stats = run_streams_scenario(
        duration_ms=streams_duration, columnar_clients=True
    )
    rows.append(
        [
            "streams reduce (EOS, columnar clients)",
            streams_columnar_stats["records"],
            f"{streams_columnar_stats['elapsed_s']:.2f}",
            round(streams_columnar_stats["records_per_sec"]),
        ]
    )
    table = format_table(
        ["scenario", "records", "wall (s)", "records/sec (wall)"], rows
    )
    record_table("Hot-path microbenchmark — wall-clock records/sec", table)
    # Staying columnar exists only for speed: same-run, the batch fetch
    # must never be slower than the one that materializes per record (the
    # CI hotpath-batch smoke job fails on this; the full-scale
    # before/after numbers live in EXPERIMENTS.md).
    fetch_ratio = fetch_col_stats["records_per_sec"] / max(
        fetch_stats["records_per_sec"], 1e-9
    )
    assert fetch_ratio >= 1.0, (
        f"columnar fetch is slower than its scalar view ({fetch_ratio:.2f}x)"
    )
    timer.__exit__()
    write_bench_json(
        "hotpath",
        {"hotpath_scale": SCALE},
        [
            {"label": "fetch", **fetch_stats},
            {"label": "fetch_columnar", **fetch_col_stats},
            {"label": "produce", **produce_stats},
            {"label": "streams", **streams_stats},
            {"label": "streams_columnar_clients", **streams_columnar_stats},
        ],
        wall_seconds=timer.seconds,
    )
    return {
        "fetch": fetch_stats,
        "fetch_columnar": fetch_col_stats,
        "produce": produce_stats,
        "streams": streams_stats,
        "streams_columnar_clients": streams_columnar_stats,
        "table": table,
    }


def test_hotpath_throughput(benchmark):
    stats = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # Sanity, not calibration: every scenario moved real records.
    assert stats["fetch"]["returned"] > 0
    assert stats["produce"]["sent"] > 0
    assert stats["streams"]["records"] > 0
    # The read-committed pager must skip the aborted spans and markers.
    assert stats["fetch"]["returned"] < stats["fetch"]["scanned"]
    # The scalar view and the batch agree on what a read-committed consumer sees.
    assert stats["fetch_columnar"]["returned"] == stats["fetch"]["returned"]
    assert stats["fetch_columnar"]["scanned"] == stats["fetch"]["scanned"]
    assert stats["streams_columnar_clients"]["records"] > 0


if __name__ == "__main__":
    run_all()

#!/usr/bin/env python
"""An MxFlow-style real-time pricing pipeline (paper Section 6.1).

Reproduces the shape of Bloomberg's deployment on the simulated stack:

* source topic with derivative market-data ticks (synthetic stand-in for
  exchange/direct feeds);
* a stateful pipeline of (1) outlier signal detection, (2) per-instrument
  profile windowing, (3) weighted aggregation, with exactly-once mode so
  "every market bid and ask will be processed without duplication or
  loss";
* a *state catalog*: a second application that replays the first one's
  changelog topics with a read-committed consumer to serve consistent
  historical snapshots — possible only because changelog appends happen
  inside atomic transactions.

Run:  python examples/bloomberg_mxflow.py
"""

from repro import Cluster
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StateCatalog, StreamsBuilder, TimeWindows
from repro.workloads.market_data import MarketDataGenerator


def mxflow_topology():
    builder = StreamsBuilder()
    (
        builder.stream("market-data")
        # (1) outlier signal detection
        .filter(lambda key, tick: not tick["outlier_truth"])
        # (2) profile-based windowing per instrument
        .group_by_key()
        .windowed_by(TimeWindows.of(1_000.0).grace(5_000.0))
        # (3) weighted aggregation: a VWAP per instrument per window
        .aggregate(
            lambda: {"notional": 0.0, "size": 0},
            lambda key, tick, agg: {
                "notional": agg["notional"] + tick["mid"] * tick["size"],
                "size": agg["size"] + tick["size"],
            },
        )
        .to_stream()
        .to("market-insights")
    )
    return builder.build()


def main():
    cluster = Cluster(num_brokers=3)
    cluster.create_topic("market-data", 4)
    cluster.create_topic("market-insights", 4)

    app = KafkaStreams(
        mxflow_topology(),
        cluster,
        StreamsConfig(
            application_id="mxflow",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=100.0,
        ),
    )
    app.start(num_instances=2)

    generator = MarketDataGenerator(
        cluster, rate_per_sec=5_000, instruments=40, outlier_fraction=0.02
    )
    print("Streaming ~2 seconds of market data through the pipeline...")
    start = cluster.clock.now
    while cluster.clock.now < start + 2_000:
        generator.produce_for(25.0)
        app.step()
    app.run_until_idle()
    cluster.clock.advance(50.0)

    print(f"  ticks produced: {generator.records_produced}")

    # --- the state catalog service: consistent snapshots from changelogs ---
    store_name = next(iter(app.topology.stores()))
    catalog = StateCatalog(cluster, "mxflow", store_name)
    catalog.refresh()
    changelog, snapshot = catalog.topic, catalog.all()

    print(f"\nState catalog rebuilt {len(snapshot)} (instrument, window) "
          f"aggregates by replaying {changelog!r} (read-committed).")
    print("Sample VWAPs from the snapshot:")
    shown = 0
    for (key, window_start), agg in sorted(snapshot.items(), key=repr):
        if agg["size"] == 0:
            continue
        vwap = agg["notional"] / agg["size"]
        print(f"  {key:10s} window@{window_start:>7.0f}ms  "
              f"vwap={vwap:9.4f}  volume={agg['size']}")
        shown += 1
        if shown >= 8:
            break

    # The snapshot equals the live stores: the changelog is the
    # source-of-truth and the store is its disposable materialized view.
    live = app.store_contents(store_name)
    assert live == snapshot
    print("\nSnapshot matches the live state stores exactly "
          "(changelog = source of truth).")


if __name__ == "__main__":
    main()

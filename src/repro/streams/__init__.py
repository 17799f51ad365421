"""Kafka-Streams-like stream processing library (the paper's core system).

Build a topology with :class:`StreamsBuilder`, then run it with
:class:`KafkaStreams` against a :class:`~repro.broker.cluster.Cluster`::

    builder = StreamsBuilder()
    (builder.stream("pageview-events")
        .filter(lambda k, v: v["period"] >= 30_000)
        .map(lambda k, v: (v["category"], v))
        .group_by_key()
        .windowed_by(TimeWindows.of(5_000))
        .count()
        .to_stream()
        .to("pageview-windowed-counts"))
    app = KafkaStreams(builder.build(), cluster, StreamsConfig(...))
"""

from repro.streams.builder import StreamsBuilder
from repro.streams.records import Change, StreamRecord
from repro.streams.windows import TimeWindows, Window, Windowed
from repro.streams.suppress import Suppressed
from repro.streams.joins import JoinWindows
from repro.streams.queries import StateCatalog
from repro.streams.runtime.app import KafkaStreams

__all__ = [
    "StreamsBuilder",
    "KafkaStreams",
    "StreamRecord",
    "Change",
    "TimeWindows",
    "Window",
    "Windowed",
    "JoinWindows",
    "Suppressed",
    "StateCatalog",
]

"""StreamsBuilder: the entry point of the DSL.

Topic names of internal (repartition) topics are generated with an
``%APP_ID%`` placeholder, resolved to ``<application_id>-...`` when the
application starts — mirroring how Kafka Streams prefixes internal topics
with the application id.
"""

from __future__ import annotations

from typing import Optional

from repro.streams.kstream import KStream
from repro.streams.ktable import KTable
from repro.streams.table_ops import TableSourceProcessor
from repro.streams.topology import StateStoreSpec, Topology

APP_ID_TOKEN = "%APP_ID%"


def resolve_topic(name: str, application_id: str) -> str:
    """Substitute the application id into internal topic names."""
    return name.replace(APP_ID_TOKEN, application_id)


class StreamsBuilder:
    """Accumulates DSL operations into a :class:`Topology`."""

    def __init__(self) -> None:
        self.topology = Topology()

    def stream(self, topic: str) -> KStream:
        """A record stream read from ``topic``."""
        name = self.topology.unique_name("KSTREAM-SOURCE")
        self.topology.add_source(name, [topic])
        return KStream(
            builder=self,
            node=name,
            source_topics={topic},
            repartition_required=False,
        )

    def table(self, topic: str, store_name: Optional[str] = None) -> KTable:
        """A table materialized from the changelog stream in ``topic``."""
        store = store_name or self.topology.unique_name("KTABLE-STORE")
        self.topology.add_state_store(StateStoreSpec(name=store, kind="kv"))
        source = self.topology.unique_name("KTABLE-SOURCE")
        self.topology.add_source(source, [topic])
        node = self.topology.unique_name("KTABLE-MATERIALIZE")
        self.topology.add_processor(
            node,
            lambda store=store: TableSourceProcessor(store),
            parents=[source],
            stores=[store],
        )
        return KTable(
            builder=self,
            node=node,
            store_name=store,
            source_topics={topic},
        )

    def build(self) -> Topology:
        """Finalize and return the topology (validates sub-topologies)."""
        self.topology.sub_topologies()   # raises TopologyError if invalid
        return self.topology

"""Topology: the operator graph and its division into sub-topologies.

A topology is a DAG of source, processor, and sink nodes. Sub-topologies
(Section 3.2) are the connected components that remain after cutting the
graph at repartition topics: within a sub-topology records flow by direct
method calls; between sub-topologies they flow through a persistent,
ordered repartition topic in Kafka — the linearized communication channel
that removes backpressure and enables revision processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.broker.partition import changelog_topic
from repro.errors import TopologyError
from repro.streams.processor import Processor


@dataclass
class StateStoreSpec:
    """Declaration of a state store attached to processor nodes.

    ``kind`` is "kv" or "window"; window stores carry a retention period
    (window size + grace) used for garbage collection. When ``changelog``
    is true every update is mirrored to a changelog topic, making
    the store a disposable materialized view (Section 4).
    """

    name: str
    kind: str = "kv"
    retention_ms: float = 0.0
    changelog: bool = True

    def changelog_topic(self, application_id: str) -> str:
        return changelog_topic(application_id, self.name)


@dataclass
class SourceNode:
    name: str
    topics: List[str]
    children: List[str] = field(default_factory=list)


@dataclass
class ProcessorNode:
    name: str
    supplier: Callable[[], Processor]
    children: List[str] = field(default_factory=list)
    stores: List[str] = field(default_factory=list)


@dataclass
class SinkNode:
    name: str
    topic: str
    # partitioner(key, value, num_partitions) -> int; None = hash of key
    partitioner: Optional[Callable[[Any, Any, int], int]] = None
    children: List[str] = field(default_factory=list)   # always empty


@dataclass
class RepartitionTopicSpec:
    """An internal topic the app must create before running."""

    name: str
    num_partitions: Optional[int] = None    # None: match the upstream source


@dataclass
class SubTopology:
    """One schedulable unit: executed as one task per source partition."""

    sub_id: int
    nodes: Dict[str, Any]
    source_topics: Set[str]
    sink_topics: Set[str]
    stores: List[StateStoreSpec]

    def source_nodes(self) -> List[SourceNode]:
        return [n for n in self.nodes.values() if isinstance(n, SourceNode)]

    def sources_for_topic(self, topic: str) -> List[SourceNode]:
        return [n for n in self.source_nodes() if topic in n.topics]


class Topology:
    """The mutable operator graph; built directly or via the DSL."""

    def __init__(self) -> None:
        self._nodes: Dict[str, Any] = {}
        self._stores: Dict[str, StateStoreSpec] = {}
        self._repartition_topics: Dict[str, RepartitionTopicSpec] = {}
        self._node_seq = 0

    # -- construction -------------------------------------------------------------

    def unique_name(self, prefix: str) -> str:
        self._node_seq += 1
        return f"{prefix}-{self._node_seq:010d}"

    def add_source(self, name: str, topics: List[str]) -> str:
        self._check_new(name)
        if not topics:
            raise TopologyError(f"source {name} needs at least one topic")
        self._nodes[name] = SourceNode(name=name, topics=list(topics))
        return name

    def add_processor(
        self,
        name: str,
        supplier: Callable[[], Processor],
        parents: List[str],
        stores: Optional[List[str]] = None,
    ) -> str:
        self._check_new(name)
        store_names = list(stores or [])
        for store in store_names:
            if store not in self._stores:
                raise TopologyError(f"unknown state store: {store}")
        self._nodes[name] = ProcessorNode(
            name=name, supplier=supplier, stores=store_names
        )
        self._connect(parents, name)
        return name

    def add_sink(
        self,
        name: str,
        topic: str,
        parents: List[str],
        partitioner: Optional[Callable[[Any, Any, int], int]] = None,
    ) -> str:
        self._check_new(name)
        self._nodes[name] = SinkNode(name=name, topic=topic, partitioner=partitioner)
        self._connect(parents, name)
        return name

    def add_state_store(self, spec: StateStoreSpec) -> str:
        if spec.name in self._stores:
            raise TopologyError(f"duplicate state store: {spec.name}")
        self._stores[spec.name] = spec
        return spec.name

    def add_repartition_topic(
        self, name: str, num_partitions: Optional[int] = None
    ) -> str:
        self._repartition_topics[name] = RepartitionTopicSpec(name, num_partitions)
        return name

    def _check_new(self, name: str) -> None:
        if name in self._nodes:
            raise TopologyError(f"duplicate node name: {name}")

    def _connect(self, parents: List[str], child: str) -> None:
        if not parents:
            raise TopologyError(f"node {child} needs at least one parent")
        for parent in parents:
            node = self._nodes.get(parent)
            if node is None:
                raise TopologyError(f"unknown parent node: {parent}")
            if isinstance(node, SinkNode):
                raise TopologyError(f"cannot attach children to sink {parent}")
            node.children.append(child)

    # -- accessors -----------------------------------------------------------------

    def stores(self) -> Dict[str, StateStoreSpec]:
        return dict(self._stores)

    def repartition_topics(self) -> Dict[str, RepartitionTopicSpec]:
        return dict(self._repartition_topics)

    def is_internal_topic(self, topic: str) -> bool:
        return topic in self._repartition_topics

    # -- sub-topology computation -----------------------------------------------------

    def sub_topologies(self) -> List[SubTopology]:
        """Connected components of the node graph.

        Repartition topics are not nodes, so a sink writing to one and the
        source reading from it fall into different components — exactly the
        cut the paper describes.
        """
        if not self._nodes:
            raise TopologyError("empty topology")
        parent_of: Dict[str, Set[str]] = {name: set() for name in self._nodes}
        for name, node in self._nodes.items():
            for child in node.children:
                parent_of[child].add(name)

        visited: Set[str] = set()
        components: List[Set[str]] = []
        for name in self._nodes:
            if name in visited:
                continue
            component: Set[str] = set()
            stack = [name]
            while stack:
                current = stack.pop()
                if current in component:
                    continue
                component.add(current)
                stack.extend(self._nodes[current].children)
                stack.extend(parent_of[current])
            visited |= component
            components.append(component)

        # Deterministic ordering: by smallest source topic name, with
        # components containing external sources first.
        def sort_key(component: Set[str]):
            topics = sorted(
                t
                for n in component
                if isinstance(self._nodes[n], SourceNode)
                for t in self._nodes[n].topics
            )
            return (topics[0] if topics else "~", min(component))

        components.sort(key=sort_key)

        subs: List[SubTopology] = []
        for sub_id, component in enumerate(components):
            nodes = {n: self._nodes[n] for n in sorted(component)}
            sources: Set[str] = set()
            sinks: Set[str] = set()
            store_names: Set[str] = set()
            for node in nodes.values():
                if isinstance(node, SourceNode):
                    sources.update(node.topics)
                elif isinstance(node, SinkNode):
                    sinks.add(node.topic)
                elif isinstance(node, ProcessorNode):
                    store_names.update(node.stores)
            if not sources:
                raise TopologyError(
                    f"sub-topology {sorted(component)} has no source node"
                )
            subs.append(
                SubTopology(
                    sub_id=sub_id,
                    nodes=nodes,
                    source_topics=sources,
                    sink_topics=sinks,
                    stores=[self._stores[s] for s in sorted(store_names)],
                )
            )
        return subs

    def describe(self) -> str:
        """Human-readable topology description (like Topology#describe)."""
        lines = []
        for sub in self.sub_topologies():
            lines.append(f"Sub-topology: {sub.sub_id}")
            for name, node in sub.nodes.items():
                if isinstance(node, SourceNode):
                    kind = f"Source: {name} (topics: {sorted(node.topics)})"
                elif isinstance(node, SinkNode):
                    kind = f"Sink: {name} (topic: {node.topic})"
                else:
                    stores = f" (stores: {node.stores})" if node.stores else ""
                    kind = f"Processor: {name}{stores}"
                children = (
                    f" --> {sorted(node.children)}" if node.children else ""
                )
                lines.append(f"  {kind}{children}")
        return "\n".join(lines)

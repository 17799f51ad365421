"""Simulated Kafka broker cluster: replicated logs, coordinators, fetch path."""

from repro.broker.partition import TopicPartition, PartitionState
from repro.broker.cluster import Cluster

__all__ = ["TopicPartition", "PartitionState", "Cluster"]

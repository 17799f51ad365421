"""repro — a reproduction of "Consistency and Completeness: Rethinking
Distributed Stream Processing in Apache Kafka" (SIGMOD 2021).

Public API layers:

* :mod:`repro.broker` / :mod:`repro.clients` — the simulated Kafka cluster
  (replicated logs, idempotence, transactions) and its clients;
* :mod:`repro.streams` — the Kafka-Streams-like processing library (DSL,
  tasks, state stores, exactly-once, revision processing);
* :mod:`repro.barriers` — the checkpoint-based baseline engine;
* :mod:`repro.sim` — virtual clock, network cost model, fault rules, chaos.
"""

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    READ_COMMITTED,
    READ_UNCOMMITTED,
    BrokerConfig,
    ConsumerConfig,
    ProducerConfig,
    StreamsConfig,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.network import FaultRule, Network

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "TopicPartition",
    "Producer",
    "Consumer",
    "BrokerConfig",
    "ProducerConfig",
    "ConsumerConfig",
    "StreamsConfig",
    "AT_LEAST_ONCE",
    "EXACTLY_ONCE",
    "READ_COMMITTED",
    "READ_UNCOMMITTED",
    "SimClock",
    "Network",
    "CostModel",
    "FaultRule",
    "__version__",
]

"""Checkpoint-based baseline engine (the paper's Flink comparison).

A minimal dataflow engine with aligned-barrier (Chandy-Lamport style)
checkpoints to a simulated object store and a two-phase-commit Kafka sink,
reproducing the mechanism the paper evaluates Kafka Streams against in
Figure 5.b.
"""

from repro.barriers.object_store import ObjectStore
from repro.barriers.engine import BarrierEngine

__all__ = ["ObjectStore", "BarrierEngine"]

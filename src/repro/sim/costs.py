"""The one price list of virtual time: every virtual millisecond the
simulator charges is priced here, by a :class:`CostModel` field or, for a
price nothing sets, a module constant (DESIGN §4.5 lists each with its
charges). A cluster builds one model and shares it (``cluster.costs`` is
``cluster.network.costs``): a field changed on it moves every charge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: CPU cost of processing one record, shared by both Figure 5.b engines
#: (the Streams runtime and the barrier baseline) for fairness.
PROCESS_MS_PER_RECORD = 0.008
#: Replaying one changelog record into a store: recovery time grows with
#: how far behind a restore starts, which KIP-441's placement minimises.
RESTORE_APPLY_MS_PER_RECORD = 0.02
#: Service cost of one locally-served query (reported latency, not
#: simulation time: queries are answered off the processing thread).
QUERY_LOCAL_MS = 0.05
#: AddPartitionsToTxn grows only marginally with the partitions it adds.
ADD_PARTITIONS_MS_PER_PARTITION = 0.002
OBJECT_GET_MS = 10.0
#: Barrier alignment: a small fixed drain through the pipeline.
ALIGNMENT_MS = 1.0


@dataclass
class CostModel:
    """Virtual-time costs, in milliseconds unless a name says otherwise.
    The defaults put the Figure 5 benchmarks in the regime of the paper's
    i3.large testbed."""

    rpc_base_ms: float = 0.25          # request/response framing + queueing
    produce_per_batch_ms: float = 0.15  # leader append of one batch
    produce_per_record_us: float = 1.0  # marginal per-record append cost (µs)
    fetch_ms: float = 0.20             # consumer/replica fetch round trip
    coordinator_ms: float = 2.0        # txn/group coordinator round trip
                                       # (replicated metadata update)
    marker_write_ms: float = 0.30      # one txn marker append to one partition
    jitter_frac: float = 0.10          # +/- fraction of uniform jitter
    # The fixed per-file cost the paper highlights for Flink (Section 4.3).
    object_put_ms: float = 30.0
    object_per_kb_ms: float = 0.05

    def sample(self, rng: random.Random, base_ms: float) -> float:
        """Latency with deterministic jitter applied."""
        if base_ms <= 0:
            return 0.0
        jitter = base_ms * self.jitter_frac
        return base_ms + rng.uniform(-jitter, jitter)

    def produce(self, record_count: int) -> float:
        """One produce request carrying ``record_count`` records."""
        per_record = self.produce_per_record_us / 1000.0
        return self.rpc_base_ms + self.produce_per_batch_ms + per_record * record_count

    def fetch(self) -> float:
        return self.rpc_base_ms + self.fetch_ms

    def coordinator(self) -> float:
        return self.rpc_base_ms + self.coordinator_ms

    def add_partitions(self, partitions: int) -> float:
        """One AddPartitionsToTxn registering ``partitions`` partitions."""
        return self.coordinator() + ADD_PARTITIONS_MS_PER_PARTITION * partitions

    def restore(self, applied: int) -> float:
        """One restore round: a fetch, then ``applied`` records replayed."""
        return self.fetch() + applied * RESTORE_APPLY_MS_PER_RECORD

    def query_hop(self) -> float:
        """One query sent to one candidate instance and served there."""
        return self.rpc_base_ms + QUERY_LOCAL_MS

    def object_put(self, size_kb: float) -> float:
        return self.object_put_ms + self.object_per_kb_ms * size_kb

    def object_get(self, size_kb: float) -> float:
        return OBJECT_GET_MS + self.object_per_kb_ms * size_kb

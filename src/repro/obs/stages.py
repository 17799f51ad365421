"""Per-stage decomposition of end-to-end latency.

The paper's Figure 5.b reports a single end-to-end latency number per
commit interval. To explain *where* that latency comes from, records carry
telescoping virtual-time stamps in their headers, one per pipeline hop:

========================  ======================================================
header                    stamped by
========================  ======================================================
``created_at``            the workload generator, at produce time (existing)
``__t_fetched``           the task, with the time its consumer fetched the batch
``__t_processed``         the task, when the record (or its chunk) is dequeued
``__t_emitted``           the task, when the result (or its chunk) goes to the sink
(received)                the verifier/drain, when the committed result is read
========================  ======================================================

Each stage is the delta between consecutive stamps:

* **produce** — created → fetched: append, replication to the ISR, and
  time until a fetch picks the record up.
* **queue** — fetched → processed: buffered in the task's record queue
  behind timestamp-ordered peers.
* **process** — processed → emitted: topology processing and state-store
  work until the result hits the sink producer.
* **commit** — emitted → received: sitting uncommitted until the next
  commit (EOS: transaction commit + markers) makes it visible to a
  read-committed consumer.

Because the stamps telescope, the stage durations sum *exactly* to the
end-to-end latency per record, so the breakdown's stage sum matches the
e2e histogram mean by construction (the acceptance check allows 1% for
float accumulation).

A task that processes column chunks stamps at chunk granularity: every
record of a chunk shares one ``__t_processed`` and every record of a sink
slab one ``__t_emitted``, which is when the virtual clock says they
happened — the stamps still telescope per record.

Stamps are added by copy, never in place (headers are read-only and
shared, see ``FrozenHeaders``), and only when the cluster tracer is
enabled: the consumer notes when it fetched a batch on the batch
(``ColumnarBatch.fetched_at``, which only the Streams intake reads — a
verifier's own fetch overwrites nothing), the task dispatching a chunk
copies each record's headers with that value as ``__t_fetched`` plus
``__t_processed``, and the sink copies them again with ``__t_emitted``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.latency import CREATED_AT_HEADER, LatencyTracker
from repro.metrics.registry import Histogram

FETCHED_AT_HEADER = "__t_fetched"
PROCESSED_AT_HEADER = "__t_processed"
EMITTED_AT_HEADER = "__t_emitted"

#: Pipeline order; breakdown() reports stages in this order.
STAGES = ("produce", "queue", "process", "commit")


class StageLatencyTracker(LatencyTracker):
    """A LatencyTracker that also attributes each record's latency to
    pipeline stages when the record carries stage stamps."""

    def __init__(self) -> None:
        super().__init__()
        self.stage_histograms: Dict[str, Histogram] = {
            stage: Histogram(f"stage_{stage}_ms") for stage in STAGES
        }

    def record_output(self, record, received_at_ms: float) -> Optional[float]:
        # LatencyTracker.record_output, inlined: one frame per record.
        headers = record.headers
        created = headers.get(CREATED_AT_HEADER)
        if created is None:
            return None
        latency = received_at_ms - created
        self.histogram.observe(latency)
        fetched = headers.get(FETCHED_AT_HEADER)
        processed = headers.get(PROCESSED_AT_HEADER)
        emitted = headers.get(EMITTED_AT_HEADER)
        if fetched is None or processed is None or emitted is None:
            return latency            # un-stamped record (tracing was off)
        self.stage_histograms["produce"].observe(fetched - created)
        self.stage_histograms["queue"].observe(processed - fetched)
        self.stage_histograms["process"].observe(emitted - processed)
        self.stage_histograms["commit"].observe(received_at_ms - emitted)
        return latency

    @property
    def stamped_count(self) -> int:
        """Records that carried a full set of stage stamps."""
        return self.stage_histograms["produce"].count

    def breakdown(self) -> Dict[str, float]:
        """Mean virtual-time spent per stage, in pipeline order. Empty when
        no stamped records were seen (tracing off)."""
        if self.stamped_count == 0:
            return {}
        return {
            stage: self.stage_histograms[stage].mean() for stage in STAGES
        }

    def stage_sum_ms(self) -> float:
        """Sum of the per-stage means; telescopes to the e2e mean when every
        observed record was stamped."""
        return sum(self.breakdown().values())

"""The checkpoint-based streaming engine (Flink-like baseline).

One job: Kafka source -> keyed stateful operator -> transactional Kafka
sink. Exactly-once is achieved the way the paper describes for Flink
(Section 4.3):

* state is snapshotted on aligned barriers every ``checkpoint_interval_ms``
  into an object store, **incrementally but per-file** — each checkpoint
  uploads ``max(1, ceil(dirty_keys / keys_per_file))`` files, each paying
  the store's fixed PUT latency;
* the sink buffers its output in a Kafka transaction that can only commit
  once the checkpoint completes, so end-to-end latency is gated on
  checkpoint duration + interval;
* the source's offsets are part of the checkpoint; recovery rolls the
  whole job back to the last completed checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.broker.cluster import Cluster
from repro.barriers.object_store import ObjectStore
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import ConsumerConfig, ProducerConfig, READ_UNCOMMITTED
from repro.sim.network import PROCESS_COST_MS_PER_RECORD
from repro.sim.scheduler import Driver
from repro.util import partition_for

# reduce_fn(key, value, state_value_or_None) -> new_state_value
ReduceFn = Callable[[Any, Any, Optional[Any]], Any]


@dataclass
class CheckpointMetadata:
    """A completed checkpoint: enough to restore the engine."""

    checkpoint_id: int
    state_path: str
    source_offsets: Dict[Any, int] = field(default_factory=dict)
    completed_at_ms: float = 0.0


class BarrierEngine:
    """A single-job checkpointing engine over the simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        source_topic: str,
        sink_topic: str,
        reduce_fn: ReduceFn,
        object_store: Optional[ObjectStore] = None,
        checkpoint_interval_ms: float = 1000.0,
        keys_per_file: int = 64,
        min_files: int = 1,
        alignment_delay_ms: float = 1.0,
        job_name: str = "barrier-job",
    ) -> None:
        if checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be > 0")
        self.cluster = cluster
        self.clock = cluster.clock
        self.source_topic = source_topic
        self.sink_topic = sink_topic
        self.reduce_fn = reduce_fn
        self.store = object_store or ObjectStore(cluster.clock)
        self.checkpoint_interval_ms = checkpoint_interval_ms
        self.keys_per_file = keys_per_file
        # Every checkpoint uploads at least one file per stateful operator
        # instance; a parallelism-4 job writes 4 files even for one key.
        self.min_files = max(1, min_files)
        self.alignment_delay_ms = alignment_delay_ms
        self.job_name = job_name

        self.consumer = Consumer(
            cluster,
            ConsumerConfig(
                client_id=f"{job_name}-source",
                isolation_level=READ_UNCOMMITTED,
                auto_offset_reset="earliest",
            ),
        )
        self.consumer.assign(cluster.partitions_for(source_topic))
        self.producer = Producer(
            cluster,
            ProducerConfig(
                client_id=f"{job_name}-sink",
                transactional_id=f"{job_name}-sink-txn",
            ),
        )
        self.producer.init_transactions()

        self.state: Dict[Any, Any] = {}
        self._dirty: set = set()
        # False between crash() and recover(): a crashed job's process is
        # gone, so step()/flush() are no-ops until a supervisor (e.g. the
        # chaos scenario harness) restarts it.
        self.alive = True
        self._checkpoint_seq = 0
        self._next_checkpoint_at = self.clock.now + checkpoint_interval_ms
        self.completed_checkpoints: List[CheckpointMetadata] = []
        self.records_processed = 0
        self.checkpoints_completed = 0
        self.checkpoint_time_ms = 0.0
        # Checkpoint deadline as a wake timer on the shared clock: the
        # callback only flags; the checkpoint runs at the safe point in
        # step(). Idle drivers jump interval-to-interval instead of
        # creeping 1 ms at a time.
        self._checkpoint_due = False
        self._checkpoint_timer = None
        self._arm_checkpoint_timer()
        self._driver = Driver(self.clock)
        self._driver.register(self)

    # -- processing -----------------------------------------------------------------

    def step(self) -> int:
        """One cycle: poll, process, output inside the open transaction,
        checkpoint when the interval elapses."""
        if not self.alive:
            return 0
        records = self.consumer.poll()
        if records and not self.producer._in_transaction:
            self.producer.begin_transaction()
        for record in records:
            new_state = self.reduce_fn(record.key, record.value, self.state.get(record.key))
            self.state[record.key] = new_state
            self._dirty.add(record.key)
            meta = self.cluster.topic_metadata(self.sink_topic)
            self.producer.send(
                self.sink_topic,
                key=record.key,
                value=new_state,
                timestamp=record.timestamp,
                partition=partition_for(record.key, meta.num_partitions),
                headers=record.headers,
            )
        if records:
            self.clock.advance(len(records) * PROCESS_COST_MS_PER_RECORD)
            self.records_processed += len(records)
        if self._checkpoint_due or self.clock.now >= self._next_checkpoint_at:
            self.checkpoint()
        return len(records)

    # Actor protocol (repro.sim.scheduler.Driver), so the checkpoint
    # baseline can share a driver — and a deterministic timeline — with
    # Streams apps on the same cluster.
    def poll(self) -> int:
        return self.step()

    def flush(self) -> None:
        """End-of-run commit: checkpoint only if output or state is
        pending — the transactional sink's data is invisible until the
        checkpoint's commit, but an empty checkpoint would just burn
        object-store PUTs."""
        if not self.alive:
            return
        if self._dirty or self.producer._in_transaction:
            self.checkpoint()

    @property
    def driver(self) -> Driver:
        return self._driver

    def run_for(self, duration_ms: float) -> int:
        """Drive the job for ``duration_ms`` of virtual time, jumping idle
        gaps to the next checkpoint deadline."""
        return self._driver.run_for(duration_ms)

    def _arm_checkpoint_timer(self) -> None:
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
        self._checkpoint_timer = self.clock.schedule(
            max(0.0, self._next_checkpoint_at - self.clock.now),
            self._on_checkpoint_timer,
        )

    def _on_checkpoint_timer(self) -> None:
        self._checkpoint_timer = None
        self._checkpoint_due = True

    # -- checkpointing --------------------------------------------------------------------

    def checkpoint(self) -> CheckpointMetadata:
        """Aligned-barrier checkpoint + two-phase transactional commit."""
        started = self.clock.now
        self._checkpoint_seq += 1
        checkpoint_id = self._checkpoint_seq

        # Barrier alignment: the barrier flows through the (single-operator)
        # pipeline; with backpressure this grows, here it is a small fixed
        # drain cost.
        self.clock.advance(self.alignment_delay_ms)

        # Incremental, per-file state upload: even one dirty key costs a
        # full file PUT — the fixed cost the paper highlights.
        file_count = max(self.min_files, math.ceil(len(self._dirty) / self.keys_per_file))
        base = f"{self.job_name}/chk-{checkpoint_id}"
        for index in range(file_count):
            self.store.put(
                f"{base}/state-{index}.sst",
                None,
                size_kb=4.0 + 0.1 * min(len(self._dirty), self.keys_per_file),
            )
        # The full restorable snapshot (metadata object; upload cost is the
        # files above).
        self.store._objects[f"{base}/snapshot"] = dict(self.state)

        offsets = {
            tp: self.consumer.position(tp)
            for tp in self.consumer.assignment()
        }
        metadata = CheckpointMetadata(
            checkpoint_id=checkpoint_id,
            state_path=f"{base}/snapshot",
            source_offsets=offsets,
            completed_at_ms=self.clock.now,
        )

        # Phase two: the sink's transaction commits only after the
        # checkpoint is complete — this gates output visibility.
        if self.producer._in_transaction:
            self.producer.commit_transaction()
        self.completed_checkpoints.append(metadata)
        self.checkpoints_completed += 1
        self._dirty.clear()
        self._next_checkpoint_at = self.clock.now + self.checkpoint_interval_ms
        self._checkpoint_due = False
        self._arm_checkpoint_timer()
        self.checkpoint_time_ms += self.clock.now - started
        return metadata

    # -- failure & recovery -----------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state; the open transaction dangles (it will
        be aborted on restart registration or by timeout)."""
        self.state = {}
        self._dirty = set()
        self.alive = False

    def recover(self) -> Optional[int]:
        """Restore from the last completed checkpoint: reload state from
        the object store, rewind the source, re-register the sink's
        transactional id (fencing/aborting the dangling transaction)."""
        rec = self.cluster.recovery
        # The supervisor noticing the dead job and handing it back its
        # slot is both the detection and the realignment for a
        # single-job engine.
        rec.note_detection("barrier_supervisor", job=self.job_name)
        rec.note_realign("barrier_recover", job=self.job_name)
        self.producer.init_transactions()
        self.alive = True
        if not self.completed_checkpoints:
            self.state = {}
            self._dirty = set()
            for tp in self.consumer.assignment():
                self.consumer.seek_to_beginning(tp)
            rec.note_restore("barrier", records=0, complete=True,
                             job=self.job_name)
            return None
        latest = self.completed_checkpoints[-1]
        self.state = dict(self.store.get(latest.state_path))
        self._dirty = set()
        for tp, offset in latest.source_offsets.items():
            self.consumer.seek(tp, offset)
        self._next_checkpoint_at = self.clock.now + self.checkpoint_interval_ms
        self._checkpoint_due = False
        self._arm_checkpoint_timer()
        rec.note_restore("barrier", records=len(self.state), complete=True,
                         job=self.job_name)
        return latest.checkpoint_id

"""StreamsInstance: one deployed copy of the application.

Owns an embedded consumer (a group member) and embedded producer(s), hosts
the tasks assigned to it, and drives their read-process-write cycles. In
exactly-once mode every output — sink records, changelog appends, and the
source-offset commit — happens inside one transaction per commit interval;
in at-least-once mode offsets are committed non-transactionally after the
outputs are flushed, which is precisely the window in which a crash causes
duplicated effects (Figure 1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    READ_COMMITTED,
    READ_SPECULATIVE,
    READ_UNCOMMITTED,
    ConsumerConfig,
    ProducerConfig,
    StreamsConfig,
)
from repro.errors import (
    CommitFailedError,
    IllegalGenerationError,
    MaxBlockTimeoutError,
    ProducerFencedError,
    RetriableError,
    TaskMigratedError,
    UnknownMemberError,
)
# (ProducerFencedError is both caught around commits — wrapped as
# TaskMigratedError — and around the processing loop directly.)
from repro.sim.costs import PROCESS_MS_PER_RECORD
from repro.streams.runtime.standby import StandbyTask
from repro.streams.runtime.task import StreamTask, TaskId
from repro.util import ExponentialBackoff, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.app import KafkaStreams


class StreamsInstance:
    """One application instance (modelled as a single stream thread)."""

    def __init__(self, app: "KafkaStreams", instance_id: int) -> None:
        self.app = app
        self.instance_id = instance_id
        self.config: StreamsConfig = app.config
        self.cluster = app.cluster
        # ``tasks`` and ``alive`` feed every instance's placement (who may
        # shadow what), so they change only here and in the four helpers
        # below, each of which bumps ``app.placement_epoch``.
        self.tasks: Dict[TaskId, StreamTask] = {}
        self.standby_tasks: Dict[TaskId, Any] = {}
        self.alive = True
        app.placement_epoch += 1
        # (consumer.assignment_epoch, app.placement_epoch) as the last
        # *completed* _sync_tasks() found them; step() syncs again only
        # when the pair has moved.
        self._synced_epochs: Optional[tuple] = None
        self.commits_performed = 0
        self.commits_deferred = 0      # speculative commits awaiting upstream
        self.speculation_rollbacks = 0
        self.records_processed = 0
        # Graceful degradation under sustained coordinator loss: when a
        # blocking client call burns its whole timeout budget, this
        # instance sheds polls for a bounded, exponentially growing pause
        # instead of immediately re-blocking (see _enter_degraded).
        self._degraded_until: Optional[float] = None
        self._degraded_backoff = ExponentialBackoff(
            app.config.degraded_pause_ms, app.config.degraded_pause_max_ms
        )
        self.degraded_pauses = 0

        if self.config.speculative:
            isolation = READ_SPECULATIVE
        elif self.config.eos_enabled:
            isolation = READ_COMMITTED
        else:
            isolation = READ_UNCOMMITTED
        self.consumer = Consumer(
            self.cluster,
            ConsumerConfig(
                client_id=f"{self.config.application_id}-consumer-{instance_id}",
                group_id=self.config.application_id,
                isolation_level=isolation,
                auto_offset_reset="earliest",
                session_timeout_ms=self.config.session_timeout_ms,
                rebalance_protocol=self.config.rebalance_protocol,
                hedged_fetch=self.config.hedged_fetch,
            ),
        )
        self._tracer = self.cluster.tracer
        self._trace_pid = f"streams-{self.config.application_id}"
        self._trace_tid = f"instance-{instance_id}"
        self._task_producers: Dict[TaskId, Producer] = {}
        self._thread_producer: Optional[Producer] = None
        if not self.config.eos_per_task_producer:
            self._thread_producer = self._make_producer(
                transactional_id=(
                    f"{self.config.application_id}-{instance_id}"
                    if self.config.eos_enabled
                    else None
                )
            )
        self._txn_open = False
        self._last_commit_ms = self.cluster.clock.now
        # Commit-interval deadline as a clock timer: the callback only sets
        # a flag; the commit itself runs at the safe points in step() (never
        # mid-record, where it could split a transaction). The timer is a
        # *wake* timer, so an idle driver jumps straight to the next commit
        # deadline instead of creeping toward it 1 ms at a time.
        self._commit_due = False
        self._commit_timer = None
        # The group coordinator's session timer probes this when the
        # session deadline passes: a live instance (whose background
        # heartbeat thread would have kept the session fresh in real time)
        # is not evicted just because discrete-event time jumped; a crashed
        # one is.
        self.consumer.liveness_probe = lambda: self.alive
        # Incremental rebalance listener: the consumer diffs each new
        # assignment and reports which partitions were revoked, added, and
        # retained, so only the revoked tasks are committed and closed.
        self.consumer.rebalance_callback = self._on_assignment_change
        self.consumer.subscribe(sorted(app.all_source_topics))
        # Revocation barrier: before any rebalance hands partitions to
        # another member, this instance commits its in-flight work.
        self.cluster.group_coordinator.set_rebalance_listener(
            self.config.application_id,
            self.consumer.member_id,
            self._on_rebalance_revoke,
        )
        # Interactive-query endpoint (the modelled REST handler); lazily
        # imported so repro.streams does not depend on repro.iq at import.
        from repro.iq.server import QueryServer

        self.query_server = QueryServer(self)

    # -- the only writers of ``tasks`` / ``alive`` -----------------------------------------

    def _adopt_task(self, task_id: TaskId, task: StreamTask) -> None:
        self.tasks[task_id] = task
        self.app.placement_epoch += 1

    def _drop_task(self, task_id: TaskId) -> StreamTask:
        self.app.placement_epoch += 1
        return self.tasks.pop(task_id)

    def _drop_all_tasks(self) -> None:
        self.tasks.clear()
        self.app.placement_epoch += 1

    def _go_down(self) -> None:
        self.alive = False
        self.app.placement_epoch += 1

    def _on_rebalance_revoke(self) -> None:
        if not self.alive or not self.tasks:
            return
        try:
            self.commit()
        except TaskMigratedError:
            self._handle_migration()

    def _on_assignment_change(self, revoked, added, retained) -> None:
        """React to an assignment diff from the consumer.

        Tasks whose partitions were truly lost (revoked and not re-granted)
        are committed and closed here, *during* the poll that adopted the
        new assignment; retained tasks are untouched and keep processing.
        """
        if not self.alive:
            return
        lost_tps = set(revoked) - set(added)
        lost_tasks = {
            self.app.assignor.task_for(tp)
            for tp in lost_tps
            if self.app.assignor.task_for(tp) in self.tasks
        }
        metrics = self.cluster.metrics
        if lost_tasks:
            metrics.counter(
                "tasks_revoked_total", app=self.config.application_id
            ).increment(len(lost_tasks))
            if any(
                self.tasks[t].has_pending_commit() for t in lost_tasks
            ):
                # A commit failure here means this member was fenced; let
                # the error surface through poll() to the migration path.
                self.commit()
                committed_at = self._last_commit_ms
            else:
                # Nothing uncommitted: the lost tasks are committed as of
                # now, however long ago an idle instance last had to commit.
                committed_at = self.cluster.clock.now
            for task_id in sorted(lost_tasks):
                self.app.note_task_closed(task_id, committed_at)
                self._drop_task(task_id).close()
                producer = self._task_producers.pop(task_id, None)
                if producer is not None:
                    producer.close()
        retained_tasks = len(self.tasks)
        if retained_tasks:
            metrics.counter(
                "tasks_retained_total", app=self.config.application_id
            ).increment(retained_tasks)

    def _make_producer(self, transactional_id: Optional[str]) -> Producer:
        producer = Producer(
            self.cluster,
            ProducerConfig(
                client_id=f"{self.config.application_id}-producer-{self.instance_id}",
                transactional_id=transactional_id,
                transaction_timeout_ms=self.config.transaction_timeout_ms,
            ),
        )
        if transactional_id is not None:
            producer.init_transactions()
        return producer

    # -- producers per mode ------------------------------------------------------------

    def producer_for(self, task_id: TaskId) -> Producer:
        if self._thread_producer is not None:
            return self._thread_producer
        producer = self._task_producers.get(task_id)
        if producer is None:
            producer = self._make_producer(
                f"{self.config.application_id}-{task_id}"
            )
            self._task_producers[task_id] = producer
        return producer

    def transactional_producer_count(self) -> int:
        """Metric for the Section 6.1 insight: EOS coordination overhead
        scales with producers — per thread (v2) vs per task (v1)."""
        if not self.config.eos_enabled:
            return 0
        if self._thread_producer is not None:
            return 1
        return len(self._task_producers)

    # -- the poll/process/commit cycle ----------------------------------------------------

    def step(self) -> int:
        """One cycle: poll, re-sync placement if it moved, process, maybe
        commit.

        Returns the number of records processed.
        """
        if not self.alive:
            return 0
        if self._degraded_until is not None:
            if self.cluster.clock.now < self._degraded_until:
                self.cluster.metrics.counter(
                    "streams.degraded_shed_polls",
                    app=self.config.application_id,
                ).increment()
                return 0
            self._degraded_until = None
        try:
            batches = self.consumer.poll_batches()
            if self.consumer.take_partitions_lost():
                # We were kicked from the group (zombie scenario): nothing
                # processed since the last commit may survive.
                raise TaskMigratedError("partitions lost: member was kicked")
            if self._synced_epochs != (
                self.consumer.assignment_epoch, self.app.placement_epoch
            ):
                self._sync_tasks()
            self._route_batches(batches)
            restored = self._drive_restores()
            if self._tracer.enabled:
                # Post-route queue depths, one labeled gauge per task; the
                # telemetry reporter turns these into time series.
                metrics = self.cluster.metrics
                for task_id, task in self.tasks.items():
                    metrics.gauge(
                        "task_queue_depth", task=repr(task_id)
                    ).set(task.buffered())
            if self.config.eos_enabled:
                self._ensure_transactions()
            # One column chunk per task per round: tasks interleave, as in
            # the real stream thread's loop, so a task with a deep buffer
            # does not starve others (and does not flood repartition topics
            # with long out-of-order timestamp runs). Commit boundaries land
            # on chunk boundaries.
            processed = 0
            while True:
                round_count = 0
                for task in self.tasks.values():
                    round_count += task.process_next_chunk()
                if round_count == 0:
                    break
                processed += round_count
                self.cluster.clock.advance(round_count * PROCESS_MS_PER_RECORD)
                if self._commit_interval_elapsed():
                    self.commit()
                    if self.config.eos_enabled:
                        self._ensure_transactions()
            self.records_processed += processed
            if self.config.speculative and processed:
                # Make in-flight (uncommitted) writes visible to
                # read_speculative downstreams promptly, like a real
                # producer's linger-based sending — not only at commit.
                for producer in self._all_producers():
                    if producer._in_transaction:
                        producer.flush()
            for standby in self.standby_tasks.values():
                standby.update()
            if self._commit_interval_elapsed():
                self.commit()
            self._arm_commit_timer()
            return processed + restored
        except TaskMigratedError:
            self._handle_migration()
            return 0
        except ProducerFencedError:
            # A newer incarnation (or the transaction reaper) fenced this
            # instance's producer mid-processing.
            self._handle_migration()
            return 0
        except (MaxBlockTimeoutError, RetriableError):
            # Sustained coordinator/broker loss: a blocking call burned its
            # whole timeout budget. Degrade gracefully — shed polls for a
            # bounded pause — instead of spinning straight back into
            # another full-length block.
            self._enter_degraded()
            return 0

    def _sync_tasks(self) -> None:
        """Create tasks for newly assigned partitions, close removed ones.

        Revoked tasks are *committed* before closing (the rebalance-listener
        behaviour of Kafka Streams): their uncommitted sends already sit in
        this instance's ongoing transaction, so dropping them without a
        commit would later commit that data without its input offsets and
        break exactly-once. Where a new task's partitions start reading is
        the consumer's decision: at the committed offsets, once stable.

        Everything read here — the consumer's assignment, every instance's
        ``tasks`` / ``alive``, the assignor's warm-ups — bumps one of the two
        epochs when it changes, so ``step`` calls this only when the pair
        has moved since the last sync. The pair is read
        *before* the sync: a bump made while it runs (its own task changes
        included) costs one more, idempotent, sync on the next step.
        """
        epochs = (self.consumer.assignment_epoch, self.app.placement_epoch)
        assigned_tasks = {
            self.app.assignor.task_for(tp) for tp in self.consumer.assignment()
        }

        removed = [t for t in self.tasks if t not in assigned_tasks]
        if removed:
            self.commit()
            for task_id in removed:
                self.app.note_task_closed(task_id, self._last_commit_ms)
                self._drop_task(task_id).close()
                producer = self._task_producers.pop(task_id, None)
                if producer is not None:
                    producer.close()

        for task_id in sorted(assigned_tasks - self.tasks.keys()):
            producer = self.producer_for(task_id)
            standby_state = None
            standby = self.standby_tasks.pop(task_id, None)
            if standby is not None:
                standby.update()              # final catch-up before promotion
                standby_state = standby.handoff()
            task = StreamTask(
                task_id=task_id,
                sub_topology=self.app.sub_topology(task_id.sub_id),
                application_id=self.config.application_id,
                cluster=self.cluster,
                producer=producer,
                resolve=self.app.resolve_topic,
                standby_state=standby_state,
                track_speculation=self.config.speculative,
                restore_listener=self._notify_restore,
                restore_budget_per_poll=self.config.restore_max_records_per_poll,
            )
            task.first_process_listener = self.app.first_process_listener_for(
                task_id
            )
            self._adopt_task(task_id, task)
        self._sync_standbys()
        self._synced_epochs = epochs

    def _sync_standbys(self) -> None:
        """Maintain warm shadow stores for stateful tasks owned elsewhere.

        At most ``num_standby_replicas`` standbys exist per stateful task:
        each non-owner instance ranks itself against the other candidates
        by rendezvous hashing of the task id, and hosts the standby only
        when it lands in the top N. Every instance evaluates the same
        deterministic ranking, so the replica set needs no coordination.
        On top of the configured replicas, this instance also shadows any
        **warmup** tasks the assignor earmarked for it — standbys built
        solely so a pending migration can complete without a cold restore.
        """
        warmups = self.app.assignor.warmup_tasks_for(self.consumer.member_id)
        replicas = self.config.num_standby_replicas
        wanted = set()
        for task_id in self.app.task_ids():
            if task_id in self.tasks:
                continue
            sub = self.app.sub_topology(task_id.sub_id)
            if not any(spec.changelog for spec in sub.stores):
                continue
            if task_id in warmups:
                wanted.add(task_id)
                continue
            if replicas <= 0:
                continue
            candidates = [
                inst
                for inst in self.app.instances
                if inst.alive and task_id not in inst.tasks
            ]
            ranked = sorted(
                candidates,
                key=lambda inst: (
                    stable_hash(f"{task_id!r}:{inst.instance_id}"),
                    inst.instance_id,
                ),
            )
            if self in ranked[:replicas]:
                wanted.add(task_id)
        for task_id in list(self.standby_tasks):
            if task_id not in wanted:
                del self.standby_tasks[task_id]
        for task_id in sorted(wanted):
            if task_id not in self.standby_tasks:
                self.standby_tasks[task_id] = StandbyTask(
                    task_id=task_id,
                    sub_topology=self.app.sub_topology(task_id.sub_id),
                    application_id=self.config.application_id,
                    cluster=self.cluster,
                )

    def _drive_restores(self) -> int:
        """Throttled changelog replay: spread one poll's restore budget
        across restoring tasks, smallest lag first, so tasks close to
        completion come online soonest and a mass restore after instance
        loss cannot monopolize the thread (live tasks keep processing
        between rounds). Without a budget a round is unbounded: such a
        task only waits for a transaction open on its changelog. Returns
        records applied this round."""
        restoring = [t for t in self.tasks.values() if t.is_restoring]
        if not restoring:
            return 0
        budget = self.config.restore_max_records_per_poll or 2**31
        restoring.sort(key=lambda t: t.restore_remaining())
        applied = 0
        for task in restoring:
            if budget <= 0:
                break
            step = task.restore_step(budget)
            budget -= step
            applied += step
        if applied == 0 and any(t.is_restoring for t in restoring):
            # Changelog leaders unavailable (mid-failover) or a changelog
            # transaction undecided: wake shortly to retry instead of
            # letting an idle driver stall forever.
            self.cluster.clock.schedule(10.0, lambda: None)
        return applied

    def _enter_degraded(self) -> None:
        """Bounded pause after a blocking client call exhausted its
        timeout budget (sustained coordinator loss). Each consecutive
        entry grows the pause up to ``degraded_pause_max_ms``; the first
        successful commit resets it. Shed polls are accounted in metrics
        so the degradation is observable rather than silent."""
        pause = self._degraded_backoff.next_delay_ms()
        self._degraded_until = self.cluster.clock.now + pause
        self.degraded_pauses += 1
        self.cluster.metrics.counter(
            "streams.degraded_pauses", app=self.config.application_id
        ).increment()
        self.cluster.recovery.note_detection(
            "degraded_pause", instance=self.instance_id, pause_ms=pause
        )
        # Wake timer: an idle driver jumps to the end of the pause.
        self.cluster.clock.schedule(pause, lambda: None)

    def _notify_restore(
        self,
        task_id,
        store_name,
        store,
        changelog_topic,
        partition,
        next_offset,
        from_offset=0,
    ) -> None:
        """Forward a completed changelog restore to the app-level observer
        (read at call time so listeners attached after start() still see
        restores from later task migrations). ``from_offset`` tells the
        listener where the replay started — nonzero when a standby handoff
        turned the rebuild into an incremental catch-up."""
        listener = self.app.restore_listener
        if listener is not None:
            listener(
                task_id,
                store_name,
                store,
                changelog_topic,
                partition,
                next_offset,
                from_offset,
            )

    def _route_batches(self, batches) -> None:
        """Hand fetched ColumnarBatches to their tasks — already grouped
        per partition by the fetch, so routing is per batch, not per
        record. A batch whose partition has no live task is dropped (none
        is expected: the sync has just run for this poll's assignment)."""
        for batch in batches:
            tp = TopicPartition(batch.topic, batch.partition)
            task = self.tasks.get(self.app.assignor.task_for(tp))
            if task is not None:
                task.add_batch(tp, batch)

    def _ensure_transactions(self) -> None:
        if self._thread_producer is not None:
            if not self._thread_producer._in_transaction:
                self._thread_producer.begin_transaction()
                self._txn_open = True
            return
        for producer in self._task_producers.values():
            if not producer._in_transaction:
                producer.begin_transaction()

    # -- deadline timers -------------------------------------------------------------------------

    def _commit_interval_elapsed(self) -> bool:
        return self._commit_due or (
            self.cluster.clock.now - self._last_commit_ms
            >= self.config.commit_interval_ms
        )

    def _on_commit_timer(self) -> None:
        self._commit_timer = None
        self._commit_due = True

    def _has_uncommitted_work(self) -> bool:
        if any(task.has_pending_commit() for task in self.tasks.values()):
            return True
        return any(
            p.transaction_has_work or p.has_buffered_records
            for p in self._all_producers()
        )

    def _arm_commit_timer(self) -> None:
        """(Re-)register this instance's commit deadline as a wake timer.

        Called at the end of every step. The timer is armed only
        while there is uncommitted work — an idle instance has nothing to
        commit, so arming would just keep an idle driver spinning through
        empty commit intervals.
        """
        clock = self.cluster.clock
        if self._has_uncommitted_work():
            deadline = self._last_commit_ms + self.config.commit_interval_ms
            timer = self._commit_timer
            if timer is None or timer.fired or timer.cancelled or timer.deadline != deadline:
                if timer is not None:
                    timer.cancel()
                self._commit_timer = clock.schedule(
                    max(0.0, deadline - clock.now), self._on_commit_timer
                )
        elif self._commit_timer is not None:
            self._commit_timer.cancel()
            self._commit_timer = None

    def _cancel_commit_timer(self) -> None:
        if self._commit_timer is not None:
            self._commit_timer.cancel()
            self._commit_timer = None
        self._commit_due = False

    # -- commit ---------------------------------------------------------------------------------

    def commit(self) -> None:
        """Commit all tasks' progress (Figure 4's full cycle).

        In speculative mode the commit is gated on the upstream outcome:
        deferred while a consumed upstream transaction is still open,
        rolled back (cascading) if one aborted.
        """
        if not self.tasks:
            self._last_commit_ms = self.cluster.clock.now
            self._commit_due = False
            return
        if self.config.speculative:
            status = self._speculation_status()
            if status == "aborted":
                self._rollback_speculation()
                return
            if status == "pending":
                self.commits_deferred += 1
                return
        try:
            if self._tracer.enabled:
                with self._tracer.begin(
                    "instance.commit",
                    self._trace_pid,
                    self._trace_tid,
                    category="commit",
                    mode="eos" if self.config.eos_enabled else "alos",
                    tasks=len(self.tasks),
                ):
                    if self.config.eos_enabled:
                        self._commit_eos()
                    else:
                        self._commit_alos()
            elif self.config.eos_enabled:
                self._commit_eos()
            else:
                self._commit_alos()
        except (
            ProducerFencedError,
            IllegalGenerationError,
            UnknownMemberError,
            CommitFailedError,
        ) as exc:
            raise TaskMigratedError(str(exc)) from exc
        self.commits_performed += 1
        self._degraded_backoff.reset()
        self._last_commit_ms = self.cluster.clock.now
        self._commit_due = False

    def _commit_eos(self) -> None:
        if self._thread_producer is not None:
            # One transaction groups every task on this instance.
            for task in self.tasks.values():
                task.prepare_commit()
            offsets: Dict[TopicPartition, int] = {}
            for task in self.tasks.values():
                offsets.update(task.pending_offsets())
            producer = self._thread_producer
            if not producer._in_transaction:
                if not offsets:
                    return
                producer.begin_transaction()
            if offsets:
                producer.send_offsets_to_transaction(
                    offsets,
                    self.config.application_id,
                    member_id=self.consumer.member_id,
                    generation=self.consumer.generation,
                )
            producer.commit_transaction()
            for task in self.tasks.values():
                task.mark_committed()
            self._purge_repartition(offsets)
            return
        # One transaction per task (EOS v1).
        for task_id, task in sorted(self.tasks.items()):
            producer = self.producer_for(task_id)
            task.prepare_commit()
            offsets = task.pending_offsets()
            if not producer._in_transaction and not offsets:
                continue
            if not producer._in_transaction:
                producer.begin_transaction()
            if offsets:
                producer.send_offsets_to_transaction(
                    offsets, self.config.application_id
                )
            producer.commit_transaction()
            task.mark_committed()
            self._purge_repartition(offsets)

    def _commit_alos(self) -> None:
        producer = self._thread_producer
        offsets: Dict[TopicPartition, int] = {}
        for task in self.tasks.values():
            task.prepare_commit()
            offsets.update(task.pending_offsets())
        producer.flush()
        if offsets:
            self.consumer.commit_sync(offsets)
            for task in self.tasks.values():
                task.mark_committed()
            self._purge_repartition(offsets)

    def _purge_repartition(self, offsets: Dict[TopicPartition, int]) -> None:
        """Ask the brokers to delete fully processed repartition records —
        downstream sub-topologies have consumed them (Section 3.2)."""
        for tp, offset in offsets.items():
            if self.app.is_repartition_topic(tp.topic):
                self.cluster.delete_records(tp, offset)

    def _speculation_status(self) -> str:
        own_pids = {p.producer_id for p in self._all_producers()}
        worst = "clean"
        for task in self.tasks.values():
            status = task.speculation_status(ignore_pids=own_pids)
            if status == "aborted":
                return "aborted"
            if status == "pending":
                worst = "pending"
        return worst

    def _rollback_speculation(self) -> None:
        """Cascading rollback: an upstream transaction we consumed aborted.

        Abort our own (shared) transaction — which retracts every derived
        output and changelog append of this interval — discard all task
        state, and resume from the last committed offsets. The aborted
        upstream records are filtered by the read_speculative isolation on
        re-read, so the re-speculation converges.
        """
        self.speculation_rollbacks += 1
        for producer in self._all_producers():
            if producer._in_transaction:
                try:
                    producer.abort_transaction()
                except Exception:
                    pass
        for task in self.tasks.values():
            task.close()
        self._drop_all_tasks()
        self.consumer.seek_to_committed()
        self._last_commit_ms = self.cluster.clock.now
        self._commit_due = False

    def _handle_migration(self) -> None:
        """This instance lost its tasks (fenced / kicked): abort, drop all
        task state, and rejoin — the tasks restart elsewhere from the last
        committed transaction."""
        for producer in self._all_producers():
            if producer._in_transaction:
                try:
                    producer.abort_transaction()
                except Exception:
                    pass
        # Re-register transactional producers: a fenced or timed-out epoch
        # is unusable; registration hands this incarnation a fresh one
        # (Kafka Streams recreates its producers after TaskMigrated).
        for producer in self._all_producers():
            if producer.transactional:
                try:
                    producer.init_transactions()
                except Exception:
                    pass
        for task_id, task in self.tasks.items():
            self.app.note_task_closed(task_id, self._last_commit_ms)
            task.close()
        self._drop_all_tasks()
        if self.consumer.member_id is not None:
            # Release any partitions the coordinator is still waiting on
            # this member to hand over — its state is gone, so the last
            # committed offsets are the correct handover point.
            self.cluster.group_coordinator.rebalance_ack(
                self.config.application_id, self.consumer.member_id
            )
        self.consumer.subscribe(sorted(self.app.all_source_topics))
        self.consumer.seek_to_committed()

    def _all_producers(self) -> List[Producer]:
        producers = list(self._task_producers.values())
        if self._thread_producer is not None:
            producers.append(self._thread_producer)
        return producers

    # -- lifecycle --------------------------------------------------------------------------------

    def close(self, commit: bool = True) -> None:
        """Graceful shutdown: commit progress and leave the group."""
        if not self.alive:
            return
        if commit and self.tasks:
            try:
                self.commit()
            except TaskMigratedError:
                pass
        for task_id, task in self.tasks.items():
            self.app.note_task_closed(task_id, self._last_commit_ms)
            task.close()
        self._drop_all_tasks()
        for producer in self._all_producers():
            producer.close()
        self.consumer.close()
        self._cancel_commit_timer()
        self._go_down()

    def crash(self) -> None:
        """Abrupt failure: nothing is committed or aborted; any open
        transaction dangles until fenced or timed out. The group
        coordinator eventually notices via session expiry (the dead
        instance no longer heartbeats and fails its liveness probe)."""
        self._go_down()
        for task_id in self.tasks:
            self.app.note_task_closed(task_id, self._last_commit_ms)
        self._drop_all_tasks()
        self._cancel_commit_timer()

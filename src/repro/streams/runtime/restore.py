"""State restoration: replaying changelog topics.

State stores are disposable materialized views (Section 4): when a task is
(re)created on an instance, each of its changelog-backed stores is rebuilt
by replaying the corresponding changelog topic partition with a
read-committed view, so uncommitted or aborted transactional writes never
enter the restored state — the restored store is exactly the state at the
last committed transaction.

Restores can be *throttled*: ``max_records`` caps one replay round so a
mass restore after instance loss is spread across polls instead of
monopolising the instance (see ``StreamsConfig.restore_max_records_per_poll``).
The caller tracks the returned ``next_offset`` and calls again until the
replay reports completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.broker.fetch import fetch
from repro.broker.partition import TopicPartition
from repro.config import READ_COMMITTED

if TYPE_CHECKING:  # pragma: no cover
    from repro.broker.cluster import Cluster

# Modelled cost of replaying one changelog record into a store during
# restoration. Charged (together with one fetch round trip) only when the
# cluster's network charges latency at all, so recovery time is
# proportional to how far behind the restore starts — the quantity
# lag-aware task placement (KIP-441) exists to minimise.
RESTORE_APPLY_COST_MS_PER_RECORD = 0.02

_UNBOUNDED = 2**31


def restore_store(
    cluster: "Cluster",
    store,
    changelog_topic: str,
    partition: int,
    from_offset: int = 0,
    max_records: int = 0,
    kind: str = "task",
):
    """Replay committed changelog records into ``store`` starting at
    ``from_offset``; returns (records_applied, next_offset, complete).

    Passing a standby task's position as ``from_offset`` turns a full
    rebuild into an incremental catch-up. ``max_records > 0`` bounds one
    round (restore throttling); ``complete`` reports whether the store
    reached the committed end of the changelog with no transaction still
    open on it. ``kind`` labels the
    replay for recovery-phase tracking: active-task rebuilds ("task")
    and checkpoint reloads count toward the restore phase, steady-state
    standby catch-up ("standby") does not. The store must expose
    ``restore_put(key, value)``.
    """
    tp = TopicPartition(changelog_topic, partition)
    tracer = cluster.tracer
    if not tracer.enabled:
        return _replay(cluster, store, tp, from_offset, max_records, kind)
    with tracer.begin(
        "restore",
        "restore",
        str(tp),
        category="restore",
        store=store.name,
        from_offset=from_offset,
        kind=kind,
    ) as span:
        applied, next_offset, complete = _replay(
            cluster, store, tp, from_offset, max_records, kind
        )
        span.add(applied=applied, next_offset=next_offset, complete=complete)
    return applied, next_offset, complete


def _replay(
    cluster: "Cluster",
    store,
    tp: TopicPartition,
    from_offset: int,
    max_records: int,
    kind: str,
):
    log = cluster.partition_state(tp).leader_log()
    result = fetch(
        log,
        max(from_offset, log.log_start_offset),
        max_records=max_records if max_records > 0 else _UNBOUNDED,
        isolation_level=READ_COMMITTED,
    )
    applied = result.valid_count
    _, _, keys, values, _ = result.columns()
    for key, value in zip(keys, values):
        store.restore_put(key, value)
    # The replay pins the store's position watermark to the exact next
    # offset of the committed prefix — the staleness bound every
    # interactive-query read from this store (standby or restored active)
    # reports.
    rebase = getattr(store, "rebase_position", None)
    if rebase is not None:
        rebase(result.next_offset)
    if applied and cluster.network.charge_latency:
        cluster.clock.advance(
            cluster.network.fetch_cost()
            + applied * RESTORE_APPLY_COST_MS_PER_RECORD
        )
    # Not complete while a transaction is open on the changelog: it may be
    # a previous owner's commit whose input offsets land with its markers,
    # and a store restored without its updates would lose them.
    complete = (
        result.next_offset >= log.last_stable_offset
        and not log.open_transactions()
    )
    if kind != "standby":
        cluster.recovery.note_restore(
            kind, records=applied, complete=complete, store=store.name
        )
    return applied, result.next_offset, complete

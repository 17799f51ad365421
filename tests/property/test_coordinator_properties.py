"""Property-based tests on the coordinators' state machines."""

from hypothesis import given, settings, strategies as st

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.broker.txn_coordinator import (
    COMPLETE_ABORT,
    COMPLETE_COMMIT,
    EMPTY,
    ONGOING,
)
from repro.errors import (
    ConcurrentTransactionsError,
    InvalidTxnStateError,
    ProducerFencedError,
)

VALID_STATES = {EMPTY, ONGOING, COMPLETE_COMMIT, COMPLETE_ABORT,
                "PrepareCommit", "PrepareAbort"}


def make_cluster():
    cluster = Cluster(num_brokers=3, seed=5)
    cluster.network.charge_latency = False
    cluster.create_topic("data", 4)
    return cluster


@st.composite
def coordinator_scripts(draw):
    """Random sequences of coordinator operations from 2 producers that
    may be stale (fenced) incarnations."""
    ops = []
    n = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n):
        ops.append(
            draw(
                st.sampled_from(
                    ["init", "add", "commit", "abort", "timeout", "recover"]
                )
            )
        )
    return ops


@given(coordinator_scripts())
@settings(max_examples=80, deadline=None)
def test_coordinator_state_machine_invariants(ops):
    """Whatever the operation order, the coordinator's durable state stays
    within the legal state set, epochs never decrease, and stale epochs
    are always fenced."""
    cluster = make_cluster()
    coordinator = cluster.txn_coordinator
    tid = "prop"
    pid, epoch = coordinator.init_producer_id(tid, timeout_ms=100.0)
    max_epoch_seen = epoch
    partition = TopicPartition("data", 0)

    for op in ops:
        state_before = coordinator._txns[tid].state
        try:
            if op == "init":
                pid, epoch = coordinator.init_producer_id(tid, timeout_ms=100.0)
            elif op == "add":
                coordinator.add_partitions(tid, pid, epoch, [partition])
            elif op == "commit":
                coordinator.end_transaction(tid, pid, epoch, commit=True)
            elif op == "abort":
                coordinator.end_transaction(tid, pid, epoch, commit=False)
            elif op == "timeout":
                cluster.clock.advance(150.0)
                coordinator.abort_timed_out()
            elif op == "recover":
                coordinator.recover()
        except (InvalidTxnStateError, ProducerFencedError,
                ConcurrentTransactionsError):
            pass
        meta = coordinator._txns[tid]
        assert meta is not None
        assert meta.state in VALID_STATES
        assert meta.producer_epoch >= max_epoch_seen
        max_epoch_seen = meta.producer_epoch
        # A stale epoch can never mutate the transaction.
        if meta.producer_epoch > epoch:
            for stale_op in ("add", "commit"):
                try:
                    if stale_op == "add":
                        coordinator.add_partitions(tid, pid, epoch, [partition])
                    else:
                        coordinator.end_transaction(tid, pid, epoch, True)
                    assert False, "stale epoch was accepted"
                except (ProducerFencedError, InvalidTxnStateError,
                        ConcurrentTransactionsError):
                    pass


@given(coordinator_scripts())
@settings(max_examples=60, deadline=None)
def test_recover_is_idempotent_and_faithful(ops):
    """recover() rebuilt state always matches a second recover()."""
    cluster = make_cluster()
    coordinator = cluster.txn_coordinator
    tid = "prop"
    pid, epoch = coordinator.init_producer_id(tid, timeout_ms=100.0)
    for op in ops:
        try:
            if op == "init":
                pid, epoch = coordinator.init_producer_id(tid, timeout_ms=100.0)
            elif op == "add":
                coordinator.add_partitions(
                    tid, pid, epoch, [TopicPartition("data", 0)]
                )
            elif op == "commit":
                coordinator.end_transaction(tid, pid, epoch, True)
            elif op == "abort":
                coordinator.end_transaction(tid, pid, epoch, False)
            elif op == "timeout":
                cluster.clock.advance(150.0)
                coordinator.abort_timed_out()
            elif op == "recover":
                coordinator.recover()
        except (InvalidTxnStateError, ProducerFencedError,
                ConcurrentTransactionsError):
            pass
    coordinator.recover()
    first = coordinator._txns[tid].snapshot()
    coordinator.recover()
    second = coordinator._txns[tid].snapshot()
    # Ongoing transactions survive recovery unchanged; completed states
    # stay completed.
    assert first == second


@st.composite
def membership_scripts(draw):
    ops = []
    n = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n):
        kind = draw(st.sampled_from(["join", "leave"]))
        member = draw(st.integers(min_value=0, max_value=4))
        ops.append((kind, member))
    return ops


@given(membership_scripts())
@settings(max_examples=80, deadline=None)
def test_group_assignment_is_a_partition_of_partitions(ops):
    """At every membership state, the coordinator's assignment covers each
    subscribed partition exactly once across members."""
    cluster = make_cluster()
    coordinator = cluster.group_coordinator
    member_ids = {}
    for kind, member in ops:
        if kind == "join":
            member_id, _ = coordinator.join_group(
                "g", ("data",), member_ids.get(member)
            )
            member_ids[member] = member_id
        elif member in member_ids:
            coordinator.leave_group("g", member_ids.pop(member))

        if not member_ids:
            continue
        generation = coordinator.generation("g")
        seen = []
        for member_id in member_ids.values():
            seen.extend(coordinator.assignment("g", member_id, generation))
        expected = {TopicPartition("data", p) for p in range(4)}
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))
        # Balance: member loads differ by at most ceil/floor.
        loads = [
            len(coordinator.assignment("g", m, generation))
            for m in member_ids.values()
        ]
        assert max(loads) - min(loads) <= -(-4 // len(loads)) if loads else True

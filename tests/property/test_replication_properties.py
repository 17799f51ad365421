"""Property-based tests: acked writes survive arbitrary failure schedules."""

from hypothesis import given, settings, strategies as st

from repro.broker.partition import PartitionState, TopicPartition
from repro.errors import NotEnoughReplicasError, NotLeaderError
from repro.log.record import Record, RecordBatch


@st.composite
def failure_schedules(draw):
    """A random interleaving of appends, crashes, and restarts over 3
    brokers."""
    steps = []
    n = draw(st.integers(min_value=1, max_value=30))
    for _ in range(n):
        action = draw(st.sampled_from(["append", "crash", "restart"]))
        broker = draw(st.integers(min_value=0, max_value=2))
        steps.append((action, broker))
    return steps


@given(failure_schedules())
@settings(max_examples=80, deadline=None)
def test_acked_records_never_lost_or_duplicated(steps):
    partition = PartitionState(
        TopicPartition("t", 0), broker_ids=[0, 1, 2], min_insync_replicas=2
    )
    down = set()
    acked = []
    value = 0
    for action, broker in steps:
        if action == "append":
            try:
                partition.append(
                    RecordBatch([Record(key="k", value=value)]), acks="all"
                )
                acked.append(value)
            except (NotEnoughReplicasError, NotLeaderError):
                pass
            value += 1
        elif action == "crash" and broker not in down:
            partition.on_broker_failure(broker)
            down.add(broker)
        elif action == "restart" and broker in down:
            partition.on_broker_restart(broker)
            down.discard(broker)

    # Bring everyone back and read from the leader.
    for broker in sorted(down):
        partition.on_broker_restart(broker)
    log = partition.leader_log()
    visible = [r.value for r in log.read(0)]
    # Every acked record is present exactly once, in order. (Unacked
    # appends may or may not appear — they were never guaranteed.)
    acked_visible = [v for v in visible if v in set(acked)]
    assert acked_visible == acked
    assert len(visible) == len(set(visible))


@given(failure_schedules())
@settings(max_examples=60, deadline=None)
def test_isr_and_leader_invariants(steps):
    partition = PartitionState(
        TopicPartition("t", 0), broker_ids=[0, 1, 2], min_insync_replicas=1
    )
    down = set()
    for action, broker in steps:
        if action == "append":
            try:
                partition.append(RecordBatch([Record(key="k", value=1)]))
            except (NotEnoughReplicasError, NotLeaderError):
                pass
        elif action == "crash" and broker not in down:
            partition.on_broker_failure(broker)
            down.add(broker)
        elif action == "restart" and broker in down:
            partition.on_broker_restart(broker)
            down.discard(broker)
        # Invariants that must hold at every step:
        if partition.leader is not None:
            assert partition.leader in partition.isr
            assert partition.leader not in down
        else:
            assert partition.isr == set()
        for broker_id in partition.isr:
            assert broker_id not in down
        # High watermark never exceeds any in-sync replica's log end.
        if partition.leader is not None:
            hw = partition.leader_log().high_watermark
            for broker_id in partition.isr:
                assert partition.replica_log(broker_id).log_end_offset >= hw

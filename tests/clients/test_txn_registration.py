"""Transactional partition registration, pinned by the RPCs it sends.

A transactional producer registers every partition it writes with the
coordinator (``add_partitions_to_txn``) before the first produce to it,
batching the partitions a flush is about to send (Section 4.3). The
producer queues a partition for registration when it creates the
partition's buffer, not on every record: inside a transaction every
partition with a buffer is already registered or queued. The scripted
sequence below — sends, a mid-transaction flush, offsets, a flush that
gives up, commit, abort, a full batch, ``init_transactions`` after a
failure — must send the registrations recorded in ``EXPECTED`` (recorded
while the check still ran per record; regenerate:
``python tests/clients/test_txn_registration.py``), attempt for attempt and
payload for payload.
"""

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.producer import Producer
from repro.config import ProducerConfig
from repro.errors import RequestTimeoutError
from repro.sim.network import FaultRule


def script():
    """Run the script; returns the registration log."""
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.network.charge_latency = False
    cluster.create_topic("t", 4)
    coordinator = cluster.txn_coordinator
    log = []
    add_partitions = coordinator.add_partitions

    def spy(tid, pid, epoch, partitions):
        log.append(("applied", tid, pid, epoch, [str(tp) for tp in partitions]))
        return add_partitions(tid, pid, epoch, partitions)

    coordinator.add_partitions = spy
    network_call = cluster.network.call

    def call(api, dst, fn, base_cost_ms=None, src=None):
        if api == "add_partitions_to_txn":
            log.append(("rpc", api))
        return network_call(api, dst, fn, base_cost_ms=base_cost_ms, src=src)

    cluster.network.call = call
    p = Producer(
        cluster,
        ProducerConfig(transactional_id="reg", retries=1, batch_max_records=3),
    )

    def send(*partitions):
        for partition in partitions:
            p.send("t", key="k", value=partition, partition=partition)

    def flush_gives_up(partition=None):
        broker = None
        if partition is not None:
            broker = cluster.leader_of(TopicPartition("t", partition))
        cluster.network.add_fault(FaultRule(
            kind="drop_request", match_api="produce", match_dst=broker,
            count=10**6,
        ))
        try:
            p.flush()
        except RequestTimeoutError:
            log.append(("gave up",))
        cluster.network.clear_faults()

    p.init_transactions()
    p.begin_transaction()
    send(0, 1)
    p.flush()                                   # registers t-0, t-1
    send(1, 2, 1)
    p.send_offsets_to_transaction({TopicPartition("t", 0): 5}, "g")
    send(3)
    flush_gives_up(3)                           # registers t-2, t-3 first
    send(3, 0)
    log.append(("commit",))
    p.commit_transaction()
    p.begin_transaction()
    send(2, 2, 2)                               # a full batch: sent at once
    send(0)
    log.append(("abort",))
    p.abort_transaction()
    p.begin_transaction()
    send(1)
    flush_gives_up()
    log.append(("re-init",))
    p.init_transactions()
    p.begin_transaction()
    send(1, 3)
    log.append(("commit",))
    p.commit_transaction()
    return log


EXPECTED = [
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['t-0', 't-1']),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['__consumer_offsets-2']),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['t-2', 't-3']),
    ('gave up',),
    ('commit',),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['t-2']),
    ('abort',),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['t-0']),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 0, ['t-1']),
    ('gave up',),
    ('re-init',),
    ('commit',),
    ('rpc', 'add_partitions_to_txn'),
    ('applied', 'reg', 1, 1, ['t-1', 't-3']),
]


def test_registration_rpcs_are_the_recorded_ones():
    assert script() == EXPECTED


if __name__ == "__main__":
    for entry in script():
        print(f"    {entry!r},")

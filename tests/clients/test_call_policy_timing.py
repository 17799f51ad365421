"""The client retry policy, pinned by what an observer can see of it.

Every client RPC that can fail ambiguously (Section 2.1 / 4.1 of the paper)
is retried with capped exponential backoff until a deadline or an attempt
cap. For each retried API and each way it can fail, this table pins the
virtual clock at return, the RPCs that went out, the producer's retry
counter, the exception that came back and the recovery tracker's event
list. ``EXPECTED`` was recorded while ``Producer`` and ``Consumer`` each had
their own retry loops (regenerate: ``python tests/clients/test_call_policy_timing.py``);
one policy has to reproduce it to the bit, RNG draws included.
"""

import pytest

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import ConsumerConfig, ProducerConfig
from repro.obs.recovery import RecoveryTracker
from repro.sim.network import FaultRule

TP = TopicPartition("t", 0)
FOREVER = 10**6

#: api -> the config field that bounds its retries in time.
DEADLINE_FIELD = {
    "produce": "delivery_timeout_ms",
    "add_partitions_to_txn": "max_block_ms",
    "end_txn": "max_block_ms",
    "txn_offset_commit": "max_block_ms",
    "offset_commit": "default_api_timeout_ms",
}

#: fault name -> (rule kind, how many matching RPCs it hits); the other two
#: are a leaderless window (healed by a clock timer) and the producer's
#: attempt cap.
RULES = {
    "drop_request_x1": ("drop_request", 1),
    "drop_request_x3": ("drop_request", 3),
    "drop_ack_x1": ("drop_ack", 1),
    "drop_ack_x3": ("drop_ack", 3),
    "deadline": ("drop_request", FOREVER),
    "attempt_cap": ("drop_request", FOREVER),
}
FAULTS = list(RULES) + ["leaderless"]
CASES = [
    (api, fault)
    for api in DEADLINE_FIELD
    for fault in FAULTS
    if fault != "attempt_cap" or api == "produce"    # only produce has a cap
]


def route(cluster, api):
    if api == "produce":
        return TP
    if api in ("add_partitions_to_txn", "end_txn"):
        return cluster.txn_coordinator.txn_log_partition("txn")
    return cluster.group_coordinator.offsets_partition("g")


def observe(api, fault):
    """Run one API under one fault on a fresh, latency-charging cluster."""
    cluster = Cluster(num_brokers=3, seed=7)
    cluster.create_topic("t", 1)
    tracker = RecoveryTracker(cluster.clock).install(cluster)
    overrides = {}
    if fault == "deadline":
        overrides[DEADLINE_FIELD[api]] = 40.0
    if fault == "attempt_cap":
        overrides["retries"] = 2

    producer = None
    if api == "offset_commit":
        consumer = Consumer(
            cluster, ConsumerConfig(client_id="c", group_id="g", **overrides)
        )
        consumer.assign([TP])
        action = lambda: consumer.commit_sync({TP: 5})
    elif api == "produce":
        producer = Producer(cluster, ProducerConfig(client_id="p", **overrides))
        for i in range(3):
            producer.send("t", key="k", value=i, partition=0)
        action = producer.flush
    else:
        producer = Producer(
            cluster,
            ProducerConfig(client_id="p", transactional_id="txn", **overrides),
        )
        producer.init_transactions()
        producer.begin_transaction()
        if api == "txn_offset_commit":
            action = lambda: producer.send_offsets_to_transaction({TP: 5}, "g")
        else:
            producer.send("t", key="k", value=0, partition=0)
            if api == "end_txn":
                producer.flush()
                action = producer.commit_transaction
            else:
                action = producer.flush    # registers the partition first

    if fault == "leaderless":
        # The partition the RPC is routed by has no leader for 20 ms.
        state = cluster.partition_state(route(cluster, api))
        leader, state.leader = state.leader, None
        cluster.clock.schedule(20.0, lambda: setattr(state, "leader", leader))
    else:
        kind, count = RULES[fault]
        cluster.network.add_fault(FaultRule(kind=kind, match_api=api, count=count))

    raised = None
    try:
        action()
    except Exception as exc:
        raised = type(exc).__name__
    assert {(kind, source, tuple(sorted(details.items())))
            for _, kind, source, details in tracker.events} == {note(api)}
    return (
        cluster.clock.now,
        None if producer is None else producer.retries_performed,
        raised,
        dict(sorted(cluster.network.rpc_counts.items())),
        [t for t, *_ in tracker.events],
    )


def note(api):
    """The one kind of tracker event a retried ``api`` leaves behind."""
    if api == "produce":
        return "detect", "send_retry", (("client", "p"), ("tp", "t-0"))
    client = "c" if api == "offset_commit" else "p"
    return "detect", "coordinator_retry", (("api", api), ("client", client))


#: (api, fault) -> (clock at return, retries_performed, raised, rpc_counts,
#: clock at each tracker event).
EXPECTED = {
    ("produce", "drop_request_x1"): (
        1.2636593642638678, 1, None,
        {"produce": 2},
        [0.3888009208455529],
    ),
    ("produce", "drop_request_x3"): (
        5.047363047496284, 3, None,
        {"produce": 4},
        [0.3888009208455529, 1.2636593642638678, 2.67882468279088],
    ),
    ("produce", "drop_ack_x1"): (
        1.2636593642638678, 1, None,
        {"produce": 2},
        [0.3888009208455529],
    ),
    ("produce", "drop_ack_x3"): (
        5.047363047496284, 3, None,
        {"produce": 4},
        [0.3888009208455529, 1.2636593642638678, 2.67882468279088],
    ),
    ("produce", "deadline"): (
        40.40359932009507, 8, "RequestTimeoutError",
        {"produce": 8},
        [0.3888009208455529, 1.2636593642638678, 2.67882468279088,
         5.047363047496284, 9.453255137043403, 17.845429663746557,
         34.2128043770834, 40.40359932009507],
    ),
    ("produce", "attempt_cap"): (
        2.67882468279088, 3, "RequestTimeoutError",
        {"produce": 3},
        [0.3888009208455529, 1.2636593642638678, 2.67882468279088],
    ),
    ("produce", "leaderless"): (
        31.888800920845554, 6, None,
        {"produce": 1},
        [0.0, 0.5, 1.5, 3.5, 7.5, 15.5],
    ),
    ("add_partitions_to_txn", "drop_request_x1"): (
        11.799573593974616, 0, None,
        {"add_partitions_to_txn": 2, "init_producer_id": 1, "produce": 1,
         "txn_log_append": 2},
        [6.5835877590981],
    ),
    ("add_partitions_to_txn", "drop_request_x3"): (
        19.055253391483877, 0, None,
        {"add_partitions_to_txn": 4, "init_producer_id": 1, "produce": 1,
         "txn_log_append": 2},
        [6.5835877590981, 9.14301306261316, 12.411174317352893],
    ),
    ("add_partitions_to_txn", "drop_ack_x1"): (
        11.799342194700065, 0, None,
        {"add_partitions_to_txn": 2, "init_producer_id": 1, "produce": 1,
         "txn_log_append": 2},
        [8.640952688823944],
    ),
    ("add_partitions_to_txn", "drop_ack_x3"): (
        19.055139293261423, 0, None,
        {"add_partitions_to_txn": 4, "init_producer_id": 1, "produce": 1,
         "txn_log_append": 2},
        [8.640952688823944, 11.409113943563677, 14.600620231741104],
    ),
    ("add_partitions_to_txn", "deadline"): (
        46.30729491700322, 0, "MaxBlockTimeoutError",
        {"add_partitions_to_txn": 7, "init_producer_id": 1, "txn_log_append":
         1},
        [6.5835877590981, 9.14301306261316, 12.411174317352893,
         16.60268060553032, 22.655603321248847, 32.910952375477365,
         46.30729491700322],
    ),
    ("add_partitions_to_txn", "leaderless"): (
        40.54483042556934, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "produce": 1,
         "txn_log_append": 2},
        [4.263606872440949, 4.763606872440949, 5.763606872440949,
         7.763606872440949, 11.763606872440949, 19.76360687244095],
    ),
    ("end_txn", "drop_request_x1"): (
        16.377363000627515, 0, None,
        {"add_partitions_to_txn": 1, "end_txn": 2, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 4},
        [11.234390438180004],
    ),
    ("end_txn", "drop_request_x3"): (
        23.68714402117133, 0, None,
        {"add_partitions_to_txn": 1, "end_txn": 4, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 4},
        [11.234390438180004, 13.785489954328622, 17.03883603426386],
    ),
    ("end_txn", "drop_ack_x1"): (
        16.579609564414138, 0, None,
        {"add_partitions_to_txn": 1, "end_txn": 2, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 4},
        [14.037736518115244],
    ),
    ("end_txn", "drop_ack_x3"): (
        23.85618506267079, 0, None,
        {"add_partitions_to_txn": 1, "end_txn": 4, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 4},
        [14.037736518115244, 16.579609564414138, 19.79975012206221],
    ),
    ("end_txn", "deadline"): (
        51.110651281574086, 0, "MaxBlockTimeoutError",
        {"add_partitions_to_txn": 1, "end_txn": 7, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 2},
        [11.234390438180004, 13.785489954328622, 17.03883603426386,
         21.08070908056275, 27.300849638210824, 37.357284578819396,
         51.110651281574086],
    ),
    ("end_txn", "leaderless"): (
        45.537736518115246, 0, None,
        {"add_partitions_to_txn": 1, "end_txn": 1, "init_producer_id": 1,
         "produce": 1, "txn_log_append": 4},
        [9.04483042556934, 9.54483042556934, 10.54483042556934,
         12.54483042556934, 16.54483042556934, 24.54483042556934],
    ),
    ("txn_offset_commit", "drop_request_x1"): (
        9.93505867670573, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 2},
        [9.04483042556934],
    ),
    ("txn_offset_commit", "drop_request_x3"): (
        13.702206536274453, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 4},
        [9.04483042556934, 9.93505867670573, 11.30061019047266],
    ),
    ("txn_offset_commit", "drop_ack_x1"): (
        9.93505867670573, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 2},
        [9.04483042556934],
    ),
    ("txn_offset_commit", "drop_ack_x3"): (
        13.702206536274453, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 4},
        [9.04483042556934, 9.93505867670573, 11.30061019047266],
    ),
    ("txn_offset_commit", "deadline"): (
        49.00912787249412, 0, "MaxBlockTimeoutError",
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 8},
        [9.04483042556934, 9.93505867670573, 11.30061019047266,
         13.702206536274453, 18.0661136880815, 26.461792071911223,
         42.8282944768819, 49.00912787249412],
    ),
    ("txn_offset_commit", "leaderless"): (
        40.54483042556934, 0, None,
        {"add_partitions_to_txn": 1, "init_producer_id": 1, "txn_log_append":
         2, "txn_offset_commit": 1},
        [8.640952688823944, 9.140952688823944, 10.140952688823944,
         12.140952688823944, 16.140952688823944, 24.140952688823944],
    ),
    ("offset_commit", "drop_request_x1"): (
        1.2598694914883648, None, None,
        {"offset_commit": 2},
        [0.38687138773961965],
    ),
    ("offset_commit", "drop_request_x3"): (
        5.039683826416898, None, None,
        {"offset_commit": 4},
        [0.38687138773961965, 1.2598694914883648, 2.672974436226161],
    ),
    ("offset_commit", "drop_ack_x1"): (
        1.2598694914883648, None, None,
        {"offset_commit": 2},
        [0.38687138773961965],
    ),
    ("offset_commit", "drop_ack_x3"): (
        5.039683826416898, None, None,
        {"offset_commit": 4},
        [0.38687138773961965, 1.2598694914883648, 2.672974436226161],
    ),
    ("offset_commit", "deadline"): (
        40.40159634580179, None, "RequestTimeoutError",
        {"offset_commit": 8},
        [0.38687138773961965, 1.2598694914883648, 2.672974436226161,
         5.039683826416898, 9.443561563162294, 17.833789814298683,
         34.199341328065614, 40.40159634580179],
    ),
    ("offset_commit", "leaderless"): (
        31.88687138773962, None, None,
        {"offset_commit": 1},
        [0.0, 0.5, 1.5, 3.5, 7.5, 15.5],
    ),
}


@pytest.mark.parametrize("api,fault", CASES)
def test_retry_timing_table(api, fault):
    assert observe(api, fault) == EXPECTED[api, fault]


def test_the_table_covers_every_way_out_of_the_policy():
    raised = {case: row[2] for case, row in EXPECTED.items()}
    assert set(raised) == set(CASES)
    for api, field in DEADLINE_FIELD.items():
        assert raised[api, "drop_request_x3"] is None          # ridden out
        assert raised[api, "leaderless"] is None
        assert raised[api, "deadline"] == (
            "MaxBlockTimeoutError" if field == "max_block_ms"
            else "RequestTimeoutError"
        )
    assert raised["produce", "attempt_cap"] == "RequestTimeoutError"
    assert EXPECTED["produce", "attempt_cap"][1] == 3    # first try + 2 retries


if __name__ == "__main__":
    import textwrap

    for case in CASES:
        clock, retries, raised, rpcs, times = observe(*case)
        print(f"    {case!r}: (\n        {clock!r}, {retries!r}, {raised!r},")
        for part in (rpcs, times):
            print(textwrap.fill(f"{part!r},", 79, initial_indent=" " * 8,
                                subsequent_indent=" " * 9))
        print("    ),")

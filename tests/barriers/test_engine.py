"""The checkpoint-based engine: correctness and the cost profile that
drives Figure 5.b."""

from dataclasses import replace

import pytest

from repro.barriers.engine import BarrierEngine
from repro.barriers.object_store import ObjectStore
from repro.clients.producer import Producer

from tests.streams.harness import drain_topic, latest_by_key, make_cluster


def counting_reduce(key, value, state):
    return (state or 0) + 1


def make_engine(cluster, interval_ms=100.0, store=None, **kwargs):
    return BarrierEngine(
        cluster,
        source_topic="in",
        sink_topic="out",
        reduce_fn=counting_reduce,
        object_store=store
        or ObjectStore(cluster.clock, cluster.costs, charge_latency=False),
        checkpoint_interval_ms=interval_ms,
        **kwargs,
    )


def produce(cluster, pairs):
    producer = Producer(cluster)
    for i, (key, value) in enumerate(pairs):
        producer.send("in", key=key, value=value, timestamp=float(i))
    producer.flush()


class TestProcessing:
    def test_counts_and_commits(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster)
        produce(cluster, [("a", 1), ("a", 1), ("b", 1)])
        engine.run_for(500.0)
        final = latest_by_key(drain_topic(cluster, "out"))
        assert final == {"a": 2, "b": 1}
        assert engine.state == {"a": 2, "b": 1}

    def test_output_invisible_until_checkpoint_commits(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster, interval_ms=1000.0)
        produce(cluster, [("a", 1)])
        engine.step()
        assert engine.records_processed == 1
        # Transaction still open: read-committed consumers see nothing.
        assert drain_topic(cluster, "out") == []
        cluster.clock.advance(1000.0)
        engine.step()     # triggers the checkpoint -> commit
        assert latest_by_key(drain_topic(cluster, "out")) == {"a": 1}

    def test_offsets_stored_in_checkpoint_not_kafka(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster)
        produce(cluster, [("a", 1)])
        engine.run_for(300.0)
        meta = engine.completed_checkpoints[-1]
        (tp,) = meta.source_offsets
        assert meta.source_offsets[tp] == 1


class TestCheckpointCost:
    def test_minimum_one_file_per_checkpoint(self):
        """Even a single dirty key uploads a whole file — the fixed cost."""
        cluster = make_cluster(**{"in": 1, "out": 1})
        store = ObjectStore(
            cluster.clock,
            replace(cluster.costs, object_put_ms=25.0, object_per_kb_ms=0.0),
        )
        engine = make_engine(cluster, interval_ms=50.0, store=store)
        produce(cluster, [("a", 1)])
        engine.run_for(100.0)
        assert store.puts >= 1
        assert engine.checkpoint_time_ms >= 25.0

    def test_file_count_scales_with_dirty_keys(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        store = ObjectStore(cluster.clock, cluster.costs, charge_latency=False)
        engine = make_engine(cluster, interval_ms=10_000.0, store=store,
                             keys_per_file=10)
        produce(cluster, [(f"k{i}", 1) for i in range(35)])
        engine.step()
        engine.checkpoint()
        # 35 dirty keys / 10 per file -> 4 files.
        assert store.puts == 4

    def test_empty_checkpoint_still_costs_a_file(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        store = ObjectStore(cluster.clock, cluster.costs, charge_latency=False)
        engine = make_engine(cluster, interval_ms=10.0, store=store)
        engine.checkpoint()
        assert store.puts == 1


class TestRecovery:
    def test_crash_and_recover_from_checkpoint(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster)
        produce(cluster, [("a", 1), ("a", 1)])
        engine.run_for(300.0)              # processes + checkpoints
        produce(cluster, [("a", 1)])       # processed but not checkpointed
        engine.step()
        engine.crash()
        restored = engine.recover()
        assert restored == engine.completed_checkpoints[-1].checkpoint_id
        assert engine.state == {"a": 2}    # rolled back to the checkpoint
        engine.run_for(300.0)
        final = latest_by_key(drain_topic(cluster, "out"))
        assert final == {"a": 3}           # exactly-once after recovery

    def test_recover_without_checkpoint_restarts_from_beginning(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster, interval_ms=10_000.0)
        produce(cluster, [("a", 1)])
        engine.step()
        engine.crash()
        assert engine.recover() is None
        engine.run_for(11_000.0)
        assert latest_by_key(drain_topic(cluster, "out")) == {"a": 1}

    def test_dangling_transaction_aborted_on_recovery(self):
        cluster = make_cluster(**{"in": 1, "out": 1})
        engine = make_engine(cluster, interval_ms=10_000.0)
        produce(cluster, [("a", 1)])
        engine.step()                      # output in open txn
        engine.crash()
        engine.recover()                   # init_transactions fences/aborts
        from repro.broker.txn_coordinator import COMPLETE_ABORT

        # The coordinator aborted the dangling txn during re-registration.
        state = cluster.txn_coordinator._txns["barrier-job-sink-txn"].state
        assert state in ("Empty", COMPLETE_ABORT)
        engine.run_for(11_000.0)
        assert latest_by_key(drain_topic(cluster, "out")) == {"a": 1}

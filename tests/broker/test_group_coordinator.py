"""Group membership, generations, assignment, and durable offsets."""

import pytest

from repro.broker.partition import TopicPartition
from repro.errors import (
    CommitFailedError,
    IllegalGenerationError,
    UnknownMemberError,
)


@pytest.fixture
def coordinator(fast_cluster):
    fast_cluster.create_topic("t", 4)
    return fast_cluster.group_coordinator


class TestMembership:
    def test_single_member_gets_all_partitions(self, coordinator):
        member, gen = coordinator.join_group("g", ("t",))
        assigned = coordinator.assignment("g", member, gen)
        assert sorted(assigned) == [TopicPartition("t", i) for i in range(4)]

    def test_two_members_split_partitions(self, coordinator):
        m1, _ = coordinator.join_group("g", ("t",))
        m2, gen = coordinator.join_group("g", ("t",))
        a1 = coordinator.assignment("g", m1, gen)
        a2 = coordinator.assignment("g", m2, gen)
        assert len(a1) == len(a2) == 2
        assert not set(a1) & set(a2)
        assert len(set(a1) | set(a2)) == 4

    def test_join_bumps_generation(self, coordinator):
        _, gen1 = coordinator.join_group("g", ("t",))
        _, gen2 = coordinator.join_group("g", ("t",))
        assert gen2 == gen1 + 1

    def test_stale_generation_rejected(self, coordinator):
        m1, gen1 = coordinator.join_group("g", ("t",))
        coordinator.join_group("g", ("t",))
        with pytest.raises(IllegalGenerationError):
            coordinator.assignment("g", m1, gen1)

    def test_leave_group_rebalances(self, coordinator):
        m1, _ = coordinator.join_group("g", ("t",))
        m2, _ = coordinator.join_group("g", ("t",))
        coordinator.leave_group("g", m2)
        gen = coordinator.generation("g")
        assert len(coordinator.assignment("g", m1, gen)) == 4

    def test_unknown_member_rejected(self, coordinator):
        coordinator.join_group("g", ("t",))
        with pytest.raises(UnknownMemberError):
            coordinator.assignment("g", "ghost", coordinator.generation("g"))

    def test_sticky_reassignment_keeps_partitions(self, coordinator):
        """Stickiness: a rebalance moves as few partitions as possible."""
        m1, gen = coordinator.join_group("g", ("t",))
        before = set(coordinator.assignment("g", m1, gen))
        m2, gen = coordinator.join_group("g", ("t",))
        after = set(coordinator.assignment("g", m1, gen))
        assert after <= before          # m1 only gave partitions away
        assert len(after) == 2

    def test_rejoin_with_member_id_keeps_identity(self, coordinator):
        m1, _ = coordinator.join_group("g", ("t",))
        m1_again, _ = coordinator.join_group("g", ("t",), member_id=m1)
        assert m1 == m1_again
        assert sorted(coordinator.assignment_snapshot("g")) == [m1]

    def test_subscription_respected(self, coordinator, fast_cluster):
        fast_cluster.create_topic("other", 2)
        m1, _ = coordinator.join_group("g", ("t",))
        m2, gen = coordinator.join_group("g", ("other",))
        a2 = coordinator.assignment("g", m2, gen)
        assert all(tp.topic == "other" for tp in a2)


class TestOffsets:
    def test_commit_and_fetch(self, coordinator):
        tp = TopicPartition("t", 0)
        coordinator.commit_offsets("g", {tp: 42})
        assert coordinator.fetch_committed("g", [tp]) == {tp: 42}

    def test_latest_commit_wins(self, coordinator):
        tp = TopicPartition("t", 0)
        coordinator.commit_offsets("g", {tp: 10})
        coordinator.commit_offsets("g", {tp: 20})
        assert coordinator.fetch_committed("g", [tp])[tp] == 20

    def test_uncommitted_partition_returns_none(self, coordinator):
        tp = TopicPartition("t", 3)
        assert coordinator.fetch_committed("g", [tp])[tp] is None

    def test_groups_are_isolated(self, coordinator):
        tp = TopicPartition("t", 0)
        coordinator.commit_offsets("g1", {tp: 5})
        assert coordinator.fetch_committed("g2", [tp])[tp] is None

    def test_stale_generation_commit_rejected(self, coordinator):
        m1, gen1 = coordinator.join_group("g", ("t",))
        coordinator.join_group("g", ("t",))  # bumps generation
        with pytest.raises(IllegalGenerationError):
            coordinator.commit_offsets(
                "g", {TopicPartition("t", 0): 1}, member_id=m1, generation=gen1
            )

    def test_zombie_commit_for_foreign_partition_fenced(self, coordinator):
        """The generation check alone cannot fence a member that rejoined
        (refreshing its generation) but kept processing buffered records
        for a partition it lost: ownership is checked per partition."""
        m1, gen = coordinator.join_group("g", ("t",))
        m2, gen = coordinator.join_group("g", ("t",))
        owned_by_m2 = coordinator.assignment("g", m2, gen)
        with pytest.raises(CommitFailedError, match="does not own"):
            coordinator.commit_offsets(
                "g", {owned_by_m2[0]: 10}, member_id=m1, generation=gen
            )
        # The same commit for the member's own partitions is fine.
        owned_by_m1 = coordinator.assignment("g", m1, gen)
        coordinator.commit_offsets(
            "g", {owned_by_m1[0]: 10}, member_id=m1, generation=gen
        )
        assert coordinator.fetch_committed(
            "g", [owned_by_m1[0]]
        )[owned_by_m1[0]] == 10

    def test_memberless_commit_skips_ownership_check(self, coordinator):
        # Simple (non-group-managed) commits carry no member identity and
        # are not fenced — matching assign()-style consumers.
        coordinator.join_group("g", ("t",))
        coordinator.commit_offsets("g", {TopicPartition("t", 0): 3})
        assert (
            coordinator.fetch_committed("g", [TopicPartition("t", 0)])[
                TopicPartition("t", 0)
            ]
            == 3
        )

    def test_transactional_offsets_invisible_until_commit(self, fast_cluster, coordinator):
        """Offsets written inside a transaction only count once the txn
        commits — the rollback behaviour of Section 4.2.3."""
        txn = fast_cluster.txn_coordinator
        pid, epoch = txn.init_producer_id("tid")
        tp = TopicPartition("t", 0)
        offsets_tp = coordinator.offsets_partition("g")
        txn.add_partitions("tid", pid, epoch, [offsets_tp])
        coordinator.commit_offsets(
            "g", {tp: 99}, producer_id=pid, producer_epoch=epoch, transactional=True
        )
        assert coordinator.fetch_committed("g", [tp])[tp] is None
        txn.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator.fetch_committed("g", [tp])[tp] == 99

    def test_aborted_transactional_offsets_rolled_back(self, fast_cluster, coordinator):
        txn = fast_cluster.txn_coordinator
        pid, epoch = txn.init_producer_id("tid")
        tp = TopicPartition("t", 0)
        coordinator.commit_offsets("g", {tp: 10})  # prior committed progress
        offsets_tp = coordinator.offsets_partition("g")
        txn.add_partitions("tid", pid, epoch, [offsets_tp])
        coordinator.commit_offsets(
            "g", {tp: 50}, producer_id=pid, producer_epoch=epoch, transactional=True
        )
        txn.end_transaction("tid", pid, epoch, commit=False)
        assert coordinator.fetch_committed("g", [tp])[tp] == 10


class TestCustomAssignor:
    def test_custom_assignor_used(self, coordinator):
        def everything_to_first(members, partitions):
            ordered = sorted(members)
            result = {m: [] for m in ordered}
            result[ordered[0]] = list(partitions)
            return result

        coordinator.set_assignor("g", everything_to_first)
        m1, _ = coordinator.join_group("g", ("t",))
        m2, gen = coordinator.join_group("g", ("t",))
        first = sorted([m1, m2])[0]
        other = m2 if first == m1 else m1
        assert len(coordinator.assignment("g", first, gen)) == 4
        assert coordinator.assignment("g", other, gen) == []


class TestCooperativeProtocol:
    """KIP-429 incremental rebalancing at the coordinator level."""

    def test_all_cooperative_members_negotiate_cooperative(self, coordinator):
        from repro.config import COOPERATIVE

        coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        assert coordinator.group_protocol("g") == COOPERATIVE

    def test_mixed_protocols_downgrade_to_eager(self, coordinator):
        from repro.config import COOPERATIVE, EAGER

        m1, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        m2, gen = coordinator.join_group("g", ("t",))   # eager member
        assert coordinator.group_protocol("g") == EAGER
        # Eager semantics: the new member is granted partitions at once.
        assert coordinator.assignment("g", m2, gen)
        assert coordinator.unreleased_partitions("g") == {}

    def test_moved_partitions_withheld_until_ack(self, coordinator):
        from repro.config import COOPERATIVE

        m1, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        m2, gen = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        # First phase: m1 keeps the intersection of old and new assignment;
        # the partitions moving to m2 are withheld until m1 acks.
        a1 = coordinator.assignment("g", m1, gen)
        a2 = coordinator.assignment("g", m2, gen)
        assert len(a1) == 2
        assert a2 == []
        unreleased = coordinator.unreleased_partitions("g")
        assert len(unreleased) == 2
        assert set(unreleased.values()) == {m1}
        assert not set(unreleased) & set(a1)

    def test_ack_triggers_followup_grant(self, coordinator):
        from repro.config import COOPERATIVE

        m1, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        m2, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        coordinator.rebalance_ack("g", m1)
        assert coordinator.unreleased_partitions("g") == {}
        assert coordinator.rebalance_pending("g")
        # The follow-up rebalance applies at the next safe point.
        coordinator.heartbeat("g", m1)
        gen = coordinator.generation("g")
        a1 = coordinator.assignment("g", m1, gen)
        a2 = coordinator.assignment("g", m2, gen)
        assert len(a1) == len(a2) == 2
        assert not set(a1) & set(a2)

    def test_departed_owner_releases_its_claims(self, coordinator):
        from repro.config import COOPERATIVE

        m1, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        m2, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        assert coordinator.unreleased_partitions("g")
        coordinator.leave_group("g", m1)
        # The departed owner can never ack; its claims are released and the
        # survivor owns everything.
        assert coordinator.unreleased_partitions("g") == {}
        gen = coordinator.generation("g")
        assert len(coordinator.assignment("g", m2, gen)) == 4

    def test_unreleased_partition_keeps_old_owner_commit_eligible(
        self, coordinator
    ):
        from repro.config import COOPERATIVE

        m1, _ = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        m2, gen = coordinator.join_group("g", ("t",), protocol=COOPERATIVE)
        moving = next(iter(coordinator.unreleased_partitions("g")))
        # m1 still owns ``moving`` until it acks: committing its final
        # progress for the handed-over partition must succeed.
        coordinator.commit_offsets(
            "g", {moving: 9}, member_id=m1, generation=gen
        )
        assert coordinator.fetch_committed("g", [moving])[moving] == 9

    def test_offsets_stable_tracks_open_transactions(self, fast_cluster, coordinator):
        txn = fast_cluster.txn_coordinator
        assert coordinator.offsets_stable("g")
        pid, epoch = txn.init_producer_id("tid")
        offsets_tp = coordinator.offsets_partition("g")
        txn.add_partitions("tid", pid, epoch, [offsets_tp])
        coordinator.commit_offsets(
            "g",
            {TopicPartition("t", 0): 7},
            producer_id=pid,
            producer_epoch=epoch,
            transactional=True,
        )
        assert not coordinator.offsets_stable("g")
        txn.end_transaction("tid", pid, epoch, commit=True)
        assert coordinator.offsets_stable("g")

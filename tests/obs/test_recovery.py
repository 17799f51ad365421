"""RecoveryTracker: milestone clamping, telescoping, and hook wiring."""

import pytest

from repro.broker.cluster import Cluster
from repro.obs.recovery import NO_RECOVERY, PHASES, RecoveryTracker
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


def make_tracker(clock):
    return RecoveryTracker(clock)


class TestMilestones:
    def test_requires_fault_and_recovery(self, clock):
        tracker = make_tracker(clock)
        with pytest.raises(ValueError):
            tracker.milestones()
        tracker.note_fault("chaos")
        with pytest.raises(ValueError):
            tracker.milestones()
        tracker.note_recovered()
        assert tracker.milestones()["fault"] == tracker.milestones()["recovered"]

    def test_full_phase_sequence(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(10.0)
        tracker.note_detection("session_expired")
        clock.advance(30.0)
        tracker.note_realign("rebalance")
        clock.advance(15.0)
        tracker.note_restore("task", records=42)
        clock.advance(25.0)
        tracker.note_recovered()
        phases = tracker.phases()
        assert phases["detect"] == pytest.approx(10.0)
        assert phases["rebalance"] == pytest.approx(30.0)
        assert phases["restore"] == pytest.approx(15.0)
        assert phases["catchup"] == pytest.approx(25.0)
        assert tracker.total_ms() == pytest.approx(80.0)
        assert tracker.restored_records() == 42

    def test_no_reaction_collapses_detect_to_zero(self, clock):
        # A fault masked by instant failover has no detection event: the
        # whole gap must read as catch-up, not as unbounded "detection".
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(500.0)
        tracker.note_recovered()
        phases = tracker.phases()
        assert phases["detect"] == 0.0
        assert phases["rebalance"] == 0.0
        assert phases["restore"] == 0.0
        assert phases["catchup"] == pytest.approx(500.0)

    def test_pre_fault_events_ignored(self, clock):
        tracker = make_tracker(clock)
        tracker.note_realign("rebalance")  # steady-state setup rebalance
        clock.advance(100.0)
        tracker.note_fault("chaos")
        clock.advance(50.0)
        tracker.note_recovered()
        assert tracker.phases()["rebalance"] == 0.0
        assert tracker.phases()["catchup"] == pytest.approx(50.0)

    def test_boundaries_are_monotonic_when_events_arrive_out_of_order(
        self, clock
    ):
        # A detection trickling in *after* the realign (slow retry path)
        # must not push detect_end past rebalance_end.
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(5.0)
        tracker.note_realign("rebalance")
        clock.advance(40.0)
        tracker.note_detection("send_retry")
        clock.advance(5.0)
        tracker.note_recovered()
        m = tracker.milestones()
        assert m["fault"] <= m["detect_end"] <= m["rebalance_end"]
        assert m["rebalance_end"] <= m["restore_end"] <= m["recovered"]
        assert sum(tracker.phases().values()) == pytest.approx(
            tracker.total_ms()
        )

    def test_incomplete_restore_does_not_close_restore_phase(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(10.0)
        tracker.note_realign("rebalance")
        clock.advance(10.0)
        tracker.note_restore("task", records=10, complete=False)
        clock.advance(10.0)
        tracker.note_restore("task", records=10, complete=True)
        clock.advance(10.0)
        tracker.note_recovered()
        # The complete=True event (t=30) closes restore, not the partial.
        assert tracker.phases()["restore"] == pytest.approx(20.0)
        assert tracker.restored_records() == 20

    def test_telescoping_exact_by_construction(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        for advance, note in [
            (3.3, lambda: tracker.note_detection("fetch_error")),
            (7.7, lambda: tracker.note_realign("placement")),
            (11.1, lambda: tracker.note_restore("task", records=5)),
            (0.9, tracker.note_recovered),
        ]:
            clock.advance(advance)
            note()
        tracker.verify_telescoping(tolerance=0.0001)

    def test_verify_telescoping_raises_on_mismatch(self, clock):
        # Milestone clamping makes the real phases always telescope, so
        # force a bogus decomposition to prove the guard itself works.
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(100.0)
        tracker.note_recovered()
        tracker.verify_telescoping()
        tracker.phases = lambda: {
            "detect": 0.0, "rebalance": 0.0, "restore": 0.0, "catchup": 10.0
        }
        with pytest.raises(AssertionError, match="telescope"):
            tracker.verify_telescoping()


class TestReporting:
    def test_detection_sources_first_seen_order(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        tracker.note_detection("fetch_error")
        tracker.note_detection("send_retry")
        tracker.note_detection("fetch_error")
        assert tracker.detection_sources() == ["fetch_error", "send_retry"]

    def test_summary_keys(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(12.0)
        tracker.note_recovered()
        summary = tracker.summary()
        assert summary["faults"] == 1
        assert summary["gap_ms"] == pytest.approx(12.0)
        assert summary["detected_by"] == "-"
        for phase in PHASES:
            assert f"{phase}_ms" in summary

    def test_multiple_faults_window_spans_first_to_recovery(self, clock):
        tracker = make_tracker(clock)
        tracker.note_fault("chaos")
        clock.advance(100.0)
        tracker.note_fault("chaos")
        clock.advance(50.0)
        tracker.note_recovered()
        assert tracker.faults == 2
        assert tracker.total_ms() == pytest.approx(150.0)
        assert tracker.last_fault_at == tracker.fault_at + 100.0


class TestInstall:
    def test_install_and_uninstall(self):
        cluster = Cluster(num_brokers=1, seed=3)
        tracker = RecoveryTracker(cluster.clock).install(cluster)
        assert cluster.recovery is tracker
        RecoveryTracker.uninstall(cluster)
        assert cluster.recovery is NO_RECOVERY

    def test_tracer_mirrors_milestones(self):
        cluster = Cluster(num_brokers=1, seed=3)
        cluster.enable_tracing()
        tracker = RecoveryTracker(cluster.clock).install(cluster)
        tracker.note_fault("chaos", kind="broker_crash")
        tracker.note_detection("session_expired")
        tracker.note_recovered()
        names = [
            s.name
            for s in cluster.tracer.spans
            if s.name.startswith("recovery.")
        ]
        assert names == ["recovery.fault", "recovery.detect", "recovery.recovered"]
        RecoveryTracker.uninstall(cluster)

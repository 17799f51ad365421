"""Recovery-phase decomposition for fault-recovery runs.

A :class:`RecoveryTracker` breaks the end-to-end gap between a fault and
the return to steady state into the four phases the fault-recovery
benchmarking literature uses (arxiv 2404.06203):

``detect``
    fault injection → the first component *reacts* to it (a session
    expiry evicting a member, a retriable RPC error, a coordinator-call
    retry, a gray-broker demotion, a crashed barrier job being picked up
    for recovery).
``rebalance``
    first reaction → the last ownership realignment (group rebalance
    completion, assignor placement, barrier recovery start).
``restore``
    realignment → the last completed state restoration (changelog replay
    for an active task, checkpoint reload for the barrier engine).
``catchup``
    restoration → the run converging back to the fault-free golden
    output (reported by the scenario harness / benchmark).

The tracker is milestone-based, mirroring the telescoping construction
of :class:`~repro.obs.stages.StageLatencyTracker`: each phase boundary is
a clamped, monotonically non-decreasing timestamp between the first
fault and the recovery instant, so the four phase durations sum to the
observed end-to-end gap *by construction* (floating-point exact, well
inside the 5% acceptance tolerance the benchmark asserts).

Hook transport: the tracker installs itself as ``cluster.recovery``, and
components feed it unconditionally —

    self._cluster.recovery.note_detection("session_expired", member=member_id)

— with no dependence on tracing being enabled: while no tracker is
installed the attribute holds :data:`NO_RECOVERY`, whose hooks do nothing.
Every hook sits on a failure, rebalance or restore path, none on a
per-record one. When the cluster's tracer *is* enabled, every milestone
is additionally emitted as a ``recovery.*`` instant event so phase
boundaries line up with the span log in trace exports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

PHASES: Tuple[str, ...] = ("detect", "rebalance", "restore", "catchup")


class RecoveryTracker:
    """Collects fault/reaction/realign/restore/recovered milestones.

    Every ``note_*`` call records ``(t, kind, source, details)`` into
    :attr:`events` (a deterministic, append-ordered log). Milestones and
    phases are derived lazily so hooks stay O(1).
    """

    def __init__(self, clock, tracer=None) -> None:
        self._clock = clock
        self._tracer = tracer
        self.events: List[Tuple[float, str, str, Dict[str, Any]]] = []
        self.fault_at: Optional[float] = None       # first fault
        self.last_fault_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        self.faults: int = 0

    # -- installation --------------------------------------------------------

    def install(self, cluster) -> "RecoveryTracker":
        """Attach to ``cluster.recovery`` so component hooks find us."""
        cluster.recovery = self
        self._tracer = cluster.tracer
        return self

    @staticmethod
    def uninstall(cluster) -> None:
        cluster.recovery = NO_RECOVERY

    # -- hook entry points ---------------------------------------------------

    def note_fault(self, source: str, **details: Any) -> None:
        """A fault was injected (called by the chaos controller)."""
        now = self._note("fault", source, details)
        if self.fault_at is None:
            self.fault_at = now
        self.last_fault_at = now
        self.faults += 1

    def note_detection(self, source: str, **details: Any) -> None:
        """A component first reacted to a failure (eviction, retry, ...)."""
        self._note("detect", source, details)

    def note_realign(self, source: str, **details: Any) -> None:
        """Ownership was realigned (rebalance done, placement, recover)."""
        self._note("realign", source, details)

    def note_restore(
        self, source: str, records: int = 0, complete: bool = True, **details: Any
    ) -> None:
        """State was restored; ``complete`` marks the store fully caught
        up to its changelog (partial throttled steps pass False)."""
        details["records"] = records
        details["complete"] = complete
        self._note("restore", source, details)

    def note_recovered(self, **details: Any) -> None:
        """The run converged back to the golden output (harness-called)."""
        now = self._note("recovered", "harness", details)
        self.recovered_at = now

    def _note(self, kind: str, source: str, details: Dict[str, Any]) -> float:
        now = self._clock.now
        self.events.append((now, kind, source, details))
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                f"recovery.{kind}", "recovery", source, category="recovery", **details
            )
        return now

    # -- derived milestones --------------------------------------------------

    def milestones(self) -> Dict[str, float]:
        """Clamped phase boundaries between the first fault and recovery.

        ``fault ≤ detect_end ≤ rebalance_end ≤ restore_end ≤ recovered``.
        Events stamped before the fault (steady-state rebalances during
        setup) are ignored; a phase with no events after the fault
        collapses to zero width.
        """
        if self.fault_at is None:
            raise ValueError("no fault recorded; call note_fault() first")
        if self.recovered_at is None:
            raise ValueError("not recovered; call note_recovered() first")
        t0, t_end = self.fault_at, self.recovered_at

        def clamp(value: float, lo: float) -> float:
            return min(max(value, lo), t_end)

        # No reaction event at all (e.g. a broker crash masked by instant
        # failover) collapses detect to zero width — the whole gap is then
        # catch-up, not an unobserved "detection" that never happened.
        detect_end = t0
        for t, kind, _src, _d in self.events:
            if t >= t0 and kind in ("detect", "realign", "restore"):
                detect_end = t
                break
        detect_end = clamp(detect_end, t0)

        realign_end = detect_end
        restore_end = detect_end
        for t, kind, _src, details in self.events:
            if t < t0:
                continue
            if kind == "realign":
                realign_end = max(realign_end, t)
            elif kind == "restore" and details.get("complete", True):
                restore_end = max(restore_end, t)
        realign_end = clamp(realign_end, detect_end)
        restore_end = clamp(restore_end, realign_end)

        return {
            "fault": t0,
            "detect_end": detect_end,
            "rebalance_end": realign_end,
            "restore_end": restore_end,
            "recovered": t_end,
        }

    def phases(self) -> Dict[str, float]:
        """Per-phase durations (ms); consecutive milestone differences,
        so they telescope to :meth:`total_ms` exactly."""
        m = self.milestones()
        return {
            "detect": m["detect_end"] - m["fault"],
            "rebalance": m["rebalance_end"] - m["detect_end"],
            "restore": m["restore_end"] - m["rebalance_end"],
            "catchup": m["recovered"] - m["restore_end"],
        }

    def total_ms(self) -> float:
        """Observed end-to-end gap: first fault → recovered."""
        if self.fault_at is None or self.recovered_at is None:
            raise ValueError("recovery window incomplete")
        return self.recovered_at - self.fault_at

    def verify_telescoping(self, tolerance: float = 0.05) -> None:
        """Assert the phase sum matches the end-to-end gap within
        ``tolerance`` (relative; absolute for sub-millisecond gaps)."""
        total = self.total_ms()
        sum_phases = sum(self.phases().values())
        bound = max(abs(total) * tolerance, 1e-6)
        if abs(sum_phases - total) > bound:
            raise AssertionError(
                f"recovery phases do not telescope: sum={sum_phases:.6f}ms "
                f"!= gap={total:.6f}ms (tolerance {tolerance:.0%})"
            )

    # -- reporting -----------------------------------------------------------

    def restored_records(self) -> int:
        """Total records replayed by restore events inside the window."""
        t0 = self.fault_at if self.fault_at is not None else float("-inf")
        return sum(
            d.get("records", 0)
            for t, kind, _s, d in self.events
            if kind == "restore" and t >= t0
        )

    def detection_sources(self) -> List[str]:
        """Distinct detection sources inside the window, in first-seen order."""
        t0 = self.fault_at if self.fault_at is not None else float("-inf")
        seen: List[str] = []
        for t, kind, src, _d in self.events:
            if kind == "detect" and t >= t0 and src not in seen:
                seen.append(src)
        return seen

    def summary(self) -> Dict[str, Any]:
        """One flat dict per cell for benchmark tables / debug bundles."""
        out: Dict[str, Any] = {
            "faults": self.faults,
            "gap_ms": round(self.total_ms(), 3),
            "restored_records": self.restored_records(),
            "detected_by": ",".join(self.detection_sources()) or "-",
        }
        for name, dur in self.phases().items():
            out[f"{name}_ms"] = round(dur, 3)
        return out


class _NoRecovery:
    """``cluster.recovery`` while no tracker is installed: every hook can
    be called and records nothing; no fault is ever open."""

    fault_at = None

    def _ignore(self, *args: Any, **details: Any) -> None:
        pass

    note_fault = note_detection = note_realign = note_restore = _ignore


NO_RECOVERY = _NoRecovery()

"""Deterministic chaos engine.

A :class:`ChaosController` turns one integer seed into a reproducible fault
timeline over virtual time: rolling broker crash/restarts, leadership
churn, coordinator kills, streams-instance crashes and replacements,
lost-ack bursts, gray (slow) brokers, and severed client↔broker links.

Determinism is structural, not best-effort:

* the *schedule* (when faults fire) is drawn up front from a seeded RNG
  and armed as wake timers on the shared :class:`~repro.sim.clock.SimClock`;
* timer callbacks only *enqueue* events — the controller is a registered
  driver actor, and events are applied in :meth:`poll`, i.e. at the same
  safe points every run (never mid-record inside another actor);
* *what* each fault targets is drawn from the same RNG at apply time, so
  identical schedules walk identical RNG states.

Every applied event is recorded in :attr:`timeline`; two runs with the
same seed and config produce identical timelines, and — the point of the
exercise — identical committed output (see
:class:`~repro.sim.invariants.CommittedOutputEquality`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.broker.partition import (
    CONSUMER_OFFSETS_TOPIC,
    TRANSACTION_STATE_TOPIC,
)
from repro.obs.debug import dump_debug_bundle
from repro.sim.failures import FailureInjector
from repro.sim.invariants import (
    InvariantSuite,
    InvariantViolation,
    RebalanceContinuity,
)

# The fault repertoire (the validation universe and the default draw).
# Trim via ChaosConfig.kinds to focus a run.
ALL_KINDS = (
    "broker_crash",
    "leader_churn",
    "txn_coordinator_kill",
    "group_coordinator_kill",
    "instance_crash",
    "ack_drop",
    "gray_broker",
    "link_fault",
)


@dataclass
class ChaosConfig:
    """Knobs for one chaos run. All times are virtual milliseconds."""

    # Mean of the exponential inter-arrival distribution between faults.
    mean_fault_interval_ms: float = 400.0
    # Faults are only scheduled within this window from schedule() time.
    horizon_ms: float = 5_000.0
    # Crashed brokers restart after a uniform delay in this range.
    broker_recovery_min_ms: float = 150.0
    broker_recovery_max_ms: float = 600.0
    # Crashed streams instances are replaced after this delay.
    instance_replace_delay_ms: float = 200.0
    # Gray-broker degradation: extra per-RPC delay and how long it lasts.
    gray_delay_ms: float = 8.0
    gray_duration_ms: float = 250.0
    # Severed client↔broker link duration.
    link_duration_ms: float = 200.0
    # Lost-acknowledgement burst length.
    ack_drop_count: int = 3
    # Never take down more brokers than this at once: with RF=3 and
    # min.insync.replicas=2 one dead broker keeps every partition writable,
    # so progress (not just safety) survives the run.
    max_dead_brokers: int = 1
    # Evaluate the invariant suite at most once per this much virtual time.
    invariant_check_interval_ms: float = 100.0
    kinds: Tuple[str, ...] = ALL_KINDS
    # Optional per-kind draw weights for schedule(); kinds absent from the
    # mapping draw with weight 1.0. Keys must name members of ``kinds``.
    kind_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        # Eager validation, mirroring Network.add_fault: a typo'd scenario
        # fails at construction, not hundreds of virtual milliseconds into
        # a run when the mistyped kind is finally drawn.
        validate_kinds(self.kinds)
        if self.kind_weights is not None:
            unknown = sorted(set(self.kind_weights) - set(self.kinds))
            if unknown:
                raise ValueError(
                    f"kind_weights for kinds not in this config's repertoire: "
                    f"{unknown} (kinds: {tuple(self.kinds)})"
                )
            bad = {k: w for k, w in self.kind_weights.items() if not w > 0}
            if bad:
                raise ValueError(f"kind_weights must be > 0, got {bad}")
        if self.mean_fault_interval_ms <= 0:
            raise ValueError("mean_fault_interval_ms must be > 0")
        if self.horizon_ms <= 0:
            raise ValueError("horizon_ms must be > 0")
        if not 0 < self.broker_recovery_min_ms <= self.broker_recovery_max_ms:
            raise ValueError(
                "broker recovery delays must satisfy "
                "0 < broker_recovery_min_ms <= broker_recovery_max_ms"
            )
        if self.max_dead_brokers < 1:
            raise ValueError("max_dead_brokers must be >= 1")


def validate_kinds(kinds: Iterable[str]) -> Tuple[str, ...]:
    """Reject unknown or empty fault-kind lists up front; returns a tuple."""
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("at least one fault kind is required")
    unknown = sorted(set(kinds) - set(ALL_KINDS))
    if unknown:
        raise ValueError(
            f"unknown fault kind(s): {unknown} (expected members of {ALL_KINDS})"
        )
    return kinds


class ChaosController:
    """Seeded fault scheduler, driven as an actor at safe points.

    Usage::

        suite = InvariantSuite()
        chaos = ChaosController(cluster, apps=[app], seed=7, invariants=suite)
        app.driver.register(chaos)
        chaos.schedule()
        app.run_for(chaos.config.horizon_ms)
        chaos.quiesce()                  # stop injecting, apply repairs
        app.run_until_idle()             # drain and commit
        chaos.final_check()              # invariants, with debug dump on failure
    """

    def __init__(
        self,
        cluster,
        apps: Optional[List[Any]] = None,
        seed: int = 0,
        config: Optional[ChaosConfig] = None,
        invariants: Optional[InvariantSuite] = None,
    ) -> None:
        self.cluster = cluster
        self.apps = list(apps or [])
        self.seed = seed
        self.config = config or ChaosConfig()
        self.invariants = invariants
        if self.invariants is not None and self.apps:
            # Rebalance continuity is checked on every chaos run with apps:
            # instance crashes and replacements are rebalance storms, and
            # partitions must never be double-owned or silently dropped
            # whichever protocol the group negotiated.
            if not any(
                isinstance(inv, RebalanceContinuity)
                for inv in self.invariants.invariants
            ):
                continuity = RebalanceContinuity()
                for app in self.apps:
                    continuity.attach(app)
                self.invariants.add(continuity)
        self.injector = FailureInjector(cluster)
        self.rng = random.Random(seed)

        # (virtual time, human-readable description) of every APPLIED event.
        self.timeline: List[Tuple[float, str]] = []
        # (start_ms, end_ms, kind) per applied fault. The end is known at
        # injection time because every repair delay is drawn/configured up
        # front; instantaneous blips (ack_drop, leader_churn) get
        # zero-width windows. The health chaos matrix checks every
        # disruptive window overlaps at least one fired SLO alert.
        self.fault_windows: List[Tuple[float, float, str]] = []
        self.faults_injected = 0
        self.faults_skipped = 0

        self._pending: List[str] = []
        self._event_timers: List[Any] = []
        # broker_id -> restart timer; instance repairs as (app, timer).
        self._broker_repairs: dict = {}
        self._instance_repairs: List[Tuple[Any, Any]] = []
        self._stopped = False
        self._last_check_ms = cluster.clock.now

    # -- scheduling -------------------------------------------------------------------

    def schedule(self) -> int:
        """Draw the fault timeline for the configured horizon and arm it.

        Returns the number of scheduled events. Callable once per run.
        """
        clock = self.cluster.clock
        cfg = self.config
        t = 0.0
        count = 0
        weights = None
        if cfg.kind_weights is not None:
            weights = [cfg.kind_weights.get(k, 1.0) for k in cfg.kinds]
        while True:
            t += self.rng.expovariate(1.0 / cfg.mean_fault_interval_ms)
            if t >= cfg.horizon_ms:
                break
            if weights is None:
                kind = self.rng.choice(cfg.kinds)
            else:
                kind = self.rng.choices(cfg.kinds, weights=weights, k=1)[0]
            # The callback only enqueues; poll() applies at a safe point.
            timer = clock.schedule(t, lambda k=kind: self._pending.append(k))
            self._event_timers.append(timer)
            count += 1
        return count

    def schedule_script(self, events: Iterable[Tuple[float, str]]) -> int:
        """Arm an explicit ``(delay_ms, kind)`` fault script instead of
        (or in addition to) a random timeline — the substrate of the
        declarative scenario grid (:mod:`repro.sim.scenarios`).

        Delays are relative to now. *When* each fault fires is fully
        scripted; *what* it targets is still drawn from the seeded RNG at
        apply time, so a scenario stays deterministic per seed while
        varying its victims across seeds. Scripted events ride the same
        enqueue-then-apply-at-safe-point machinery as random ones
        (timeline, repair timers, quiesce)."""
        clock = self.cluster.clock
        count = 0
        for delay_ms, kind in sorted(events):
            validate_kinds((kind,))
            if delay_ms < 0:
                raise ValueError(f"script delays must be >= 0, got {delay_ms}")
            timer = clock.schedule(
                delay_ms, lambda k=kind: self._pending.append(k)
            )
            self._event_timers.append(timer)
            count += 1
        return count

    # -- actor protocol (repro.sim.scheduler.Driver) -----------------------------------

    def poll(self) -> int:
        """Apply any due fault events, then maybe run the invariant suite.

        Always returns 0: injecting faults is not processing progress, so
        the controller never keeps an otherwise-idle driver spinning.
        """
        while self._pending:
            kind = self._pending.pop(0)
            if not self._stopped:
                self._apply(kind)
        if self.invariants is not None:
            now = self.cluster.clock.now
            if now - self._last_check_ms >= self.config.invariant_check_interval_ms:
                self.check_invariants(final=False)
                self._last_check_ms = now
        return 0

    # -- invariant checking with failure forensics ---------------------------------------

    def check_invariants(self, final: bool = False) -> None:
        """Run the invariant suite; on violation, dump a debug bundle
        (span log, Chrome trace, metrics, fault timeline) and re-raise
        with the bundle path appended to the assertion message."""
        if self.invariants is None:
            return
        try:
            self.invariants.check_all(self.cluster, final=final)
        except InvariantViolation as exc:
            path = dump_debug_bundle(
                f"chaos-seed{self.seed}",
                self.cluster.tracer,
                registries={"cluster": self.cluster.metrics},
                timeline=self.timeline,
                health=getattr(self.cluster, "health", None),
            )
            raise InvariantViolation(f"{exc} [debug bundle: {path}]") from exc

    def final_check(self) -> None:
        """The end-of-run invariant pass (committed-output equality etc.)."""
        self.check_invariants(final=True)

    # -- event application ---------------------------------------------------------------

    def _record(self, description: str) -> None:
        self.timeline.append((self.cluster.clock.now, description))
        self.faults_injected += 1
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.event(
                "chaos.fault", "chaos", "faults", category="chaos",
                description=description,
            )
        self.cluster.recovery.note_fault(description)

    def _record_repair(self, description: str) -> None:
        self.timeline.append((self.cluster.clock.now, description))
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.event(
                "chaos.repair", "chaos", "repairs", category="chaos",
                description=description,
            )

    def _skip(self, kind: str) -> None:
        self.faults_skipped += 1

    def _note_window(self, kind: str, duration_ms: float) -> None:
        now = self.cluster.clock.now
        self.fault_windows.append((now, now + duration_ms, kind))

    def _apply(self, kind: str) -> None:
        handler = getattr(self, f"_apply_{kind}")
        handler()

    def _crashable_brokers(self) -> List[int]:
        dead = [
            b for b in sorted(self.cluster.brokers)
            if not self.cluster.is_broker_alive(b)
        ]
        if len(dead) >= self.config.max_dead_brokers:
            return []
        return self.cluster.alive_brokers()

    def _crash_and_schedule_restart(self, broker_id: int, label: str) -> None:
        cfg = self.config
        self.cluster.crash_broker(broker_id)
        delay = self.rng.uniform(
            cfg.broker_recovery_min_ms, cfg.broker_recovery_max_ms
        )
        timer = self.cluster.clock.schedule(
            delay, lambda b=broker_id: self._restart_broker(b)
        )
        self._broker_repairs[broker_id] = timer
        self._note_window(label, delay)
        self._record(f"{label}: crash broker {broker_id} (restart +{delay:.0f}ms)")

    def _restart_broker(self, broker_id: int) -> None:
        self._broker_repairs.pop(broker_id, None)
        self.cluster.restart_broker(broker_id)
        self._record_repair(f"repair: restart broker {broker_id}")

    def _apply_broker_crash(self) -> None:
        candidates = self._crashable_brokers()
        if not candidates:
            return self._skip("broker_crash")
        broker_id = self.rng.choice(candidates)
        self._crash_and_schedule_restart(broker_id, "broker_crash")

    def _coordinator_leaders(self, topic: str) -> List[int]:
        leaders = set()
        for tp, state in self.cluster.partition_states().items():
            if tp.topic == topic and state.leader is not None:
                leaders.add(state.leader)
        return sorted(leaders)

    def _apply_txn_coordinator_kill(self) -> None:
        self._kill_coordinator(TRANSACTION_STATE_TOPIC, "txn_coordinator_kill")

    def _apply_group_coordinator_kill(self) -> None:
        self._kill_coordinator(CONSUMER_OFFSETS_TOPIC, "group_coordinator_kill")

    def _kill_coordinator(self, topic: str, label: str) -> None:
        crashable = set(self._crashable_brokers())
        candidates = [b for b in self._coordinator_leaders(topic) if b in crashable]
        if not candidates:
            return self._skip(label)
        self._crash_and_schedule_restart(self.rng.choice(candidates), label)

    def _apply_leader_churn(self) -> None:
        candidates = []
        for topic in self.cluster.user_topics():
            for tp in self.cluster.partitions_for(topic):
                state = self.cluster.partition_state(tp)
                if state.leader is not None and len(state.isr) > 1:
                    candidates.append(tp)
        if not candidates:
            return self._skip("leader_churn")
        tp = self.rng.choice(candidates)
        new_leader = self.cluster.transfer_leadership(tp)
        self._note_window("leader_churn", 0.0)
        self._record(f"leader_churn: {tp} -> broker {new_leader}")

    def _apply_instance_crash(self) -> None:
        candidates = [
            (app, instance)
            for app in self.apps
            for instance in app.instances
            if instance.alive
        ]
        if not candidates:
            return self._skip("instance_crash")
        app, instance = candidates[self.rng.randrange(len(candidates))]
        app.crash_instance(instance)
        delay = self.config.instance_replace_delay_ms
        timer = self.cluster.clock.schedule(
            delay, lambda a=app: self._replace_instance(a)
        )
        self._instance_repairs.append((app, timer))
        self._note_window("instance_crash", delay)
        self._record(
            f"instance_crash: {app.config.application_id} instance "
            f"{instance.instance_id} (replace +{delay:.0f}ms)"
        )

    def _replace_instance(self, app) -> None:
        self._instance_repairs = [
            (a, t) for a, t in self._instance_repairs if not (a is app and t.fired)
        ]
        instance = app.add_instance()
        self._record_repair(
            f"repair: add instance {instance.instance_id} to "
            f"{app.config.application_id}"
        )

    def _apply_ack_drop(self) -> None:
        count = self.config.ack_drop_count
        self.injector.drop_next_produce_ack(count=count)
        self._note_window("ack_drop", 0.0)
        self._record(f"ack_drop: next {count} produce acks lost")

    def _apply_gray_broker(self) -> None:
        alive = self.cluster.alive_brokers()
        if not alive:
            return self._skip("gray_broker")
        broker_id = self.rng.choice(alive)
        cfg = self.config
        self.injector.slow_broker(broker_id, cfg.gray_delay_ms, cfg.gray_duration_ms)
        self._note_window("gray_broker", cfg.gray_duration_ms)
        self._record(
            f"gray_broker: broker {broker_id} +{cfg.gray_delay_ms:.0f}ms/rpc "
            f"for {cfg.gray_duration_ms:.0f}ms"
        )

    def _client_ids(self) -> List[str]:
        ids = []
        for app in self.apps:
            # Non-streams actors wrapped as chaos apps (e.g. the barrier
            # engine adapter) report their own client ids.
            custom = getattr(app, "client_ids", None)
            if custom is not None:
                ids.extend(custom())
                continue
            for instance in app.instances:
                if instance.alive:
                    ids.append(
                        f"{app.config.application_id}-producer-{instance.instance_id}"
                    )
        return ids

    def _apply_link_fault(self) -> None:
        clients = self._client_ids()
        alive = self.cluster.alive_brokers()
        if not clients or not alive:
            return self._skip("link_fault")
        client = self.rng.choice(clients)
        broker_id = self.rng.choice(alive)
        self.injector.sever_link(client, broker_id, self.config.link_duration_ms)
        self._note_window("link_fault", self.config.link_duration_ms)
        self._record(
            f"link_fault: {client} x broker {broker_id} severed "
            f"for {self.config.link_duration_ms:.0f}ms"
        )

    # -- teardown ---------------------------------------------------------------------

    def quiesce(self) -> None:
        """Stop injecting and repair everything still broken.

        Cancels unfired fault timers, clears armed network faults, restarts
        every dead broker, and applies outstanding instance replacements —
        so the subsequent ``run_until_idle`` drains on a healthy cluster.
        """
        self._stopped = True
        for timer in self._event_timers:
            timer.cancel()
        self._pending.clear()
        for timer in self._broker_repairs.values():
            timer.cancel()
        self._broker_repairs.clear()
        self.injector.heal()            # clears faults + restarts brokers
        for app, timer in self._instance_repairs:
            if not timer.fired:
                timer.cancel()
                self._replace_instance(app)
        self._instance_repairs.clear()
        # Make sure every app still has at least one instance to drain with.
        for app in self.apps:
            if not app.instances:
                self._replace_instance(app)

"""Declarative fault scenarios over the chaos engine.

Where :class:`~repro.sim.chaos.ChaosController` draws a *random* fault
timeline from a seed, this layer names specific failure shapes — one
broker crash, rolling crashes, a coordinator kill, instance loss, a gray
broker, a severed link — as :class:`Scenario` values: a scripted
``(fraction-of-horizon, kind)`` event list plus chaos-config overrides.
*When* each fault fires is fully declarative; *what* it targets is still
drawn from the controller's seeded RNG, so a scenario is deterministic
per seed while varying its victims across seeds.

:class:`ScenarioHarness` runs one grid cell end to end on a fresh
cluster: install a :class:`~repro.obs.recovery.RecoveryTracker`, arm the
script, run the horizon, quiesce, converge back to the golden output
(stamping the ``catchup`` phase boundary), and evaluate the invariant
suite — with teardown that leaves nothing armed, so one process can
sweep the whole (scenario × commit interval × state size × seed) grid.

:class:`BarrierAppAdapter` duck-types a
:class:`~repro.barriers.engine.BarrierEngine` as a chaos "app" so the
same scenarios drive the checkpoint baseline: ``instance_crash`` kills
the job, the replacement repair restores it from its last checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.recovery import RecoveryTracker
from repro.sim.chaos import ChaosConfig, ChaosController, validate_kinds
from repro.sim.invariants import (
    Invariant,
    InvariantSuite,
    InvariantViolation,
)


@dataclass(frozen=True)
class Scenario:
    """A named fault shape: scripted events + chaos-config overrides.

    ``script`` entries are ``(fraction, kind)`` with the fraction relative
    to the run's horizon, so one scenario scales to any cell duration.
    """

    name: str
    description: str
    script: Tuple[Tuple[float, str], ...]
    config_overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.script:
            raise ValueError(f"scenario {self.name!r} has an empty script")
        validate_kinds(tuple(kind for _, kind in self.script))
        for fraction, kind in self.script:
            if not 0.0 <= fraction < 1.0:
                raise ValueError(
                    f"scenario {self.name!r}: event fraction {fraction} for "
                    f"{kind!r} must be in [0, 1)"
                )

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this scenario injects, script order."""
        return tuple(dict.fromkeys(kind for _, kind in self.script))

    def events_for(self, horizon_ms: float) -> List[Tuple[float, str]]:
        """Concrete ``(delay_ms, kind)`` events for a horizon."""
        return [(fraction * horizon_ms, kind) for fraction, kind in self.script]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "single_broker_crash",
            "one broker crashes mid-run and restarts",
            ((0.3, "broker_crash"),),
        ),
        Scenario(
            "rolling_broker_crashes",
            "three spaced broker crashes — a rolling outage",
            ((0.2, "broker_crash"), (0.45, "broker_crash"), (0.7, "broker_crash")),
        ),
        Scenario(
            "txn_coordinator_kill",
            "the transaction coordinator's broker is killed",
            ((0.3, "txn_coordinator_kill"),),
        ),
        Scenario(
            "group_coordinator_kill",
            "the group coordinator's broker is killed",
            ((0.3, "group_coordinator_kill"),),
        ),
        Scenario(
            "instance_loss",
            "a processing instance crashes and is replaced",
            ((0.3, "instance_crash"),),
        ),
        Scenario(
            "gray_broker",
            "a broker turns slow (gray) without dying, twice",
            ((0.2, "gray_broker"), (0.55, "gray_broker")),
            {"gray_delay_ms": 8.0, "gray_duration_ms": 400.0},
        ),
        Scenario(
            "severed_link",
            "a client's link to one broker is cut, twice",
            ((0.2, "link_fault"), (0.55, "link_fault")),
            {"link_duration_ms": 300.0},
        ),
    )
}


def resolve_scenario(scenario) -> Scenario:
    """Accept a scenario name or a :class:`Scenario` value."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (known: {sorted(SCENARIOS)})"
        ) from None


@dataclass(frozen=True)
class CellSpec:
    """One cell of the recovery grid."""

    scenario: str
    commit_interval_ms: float
    state_size: int
    seed: int


def grid(
    scenarios: Optional[List[str]] = None,
    commit_intervals: Tuple[float, ...] = (20.0, 80.0),
    state_sizes: Tuple[int, ...] = (8, 40),
    seeds: Tuple[int, ...] = (7, 11, 23),
) -> Iterator[CellSpec]:
    """The full cartesian sweep, deterministic iteration order."""
    for name in scenarios if scenarios is not None else sorted(SCENARIOS):
        resolve_scenario(name)
        for interval in commit_intervals:
            for size in state_sizes:
                for seed in seeds:
                    yield CellSpec(name, interval, size, seed)


@dataclass
class CellResult:
    """Outcome of one harness run: what fired, when it converged, and the
    tracker's phase decomposition (None when no fault actually applied,
    e.g. a kill scenario with no crashable candidate)."""

    scenario: str
    seed: int
    faults_injected: int
    converged: bool
    converged_at_ms: Optional[float]
    recovery: Optional[Dict[str, Any]]
    # Fired SLO alerts (dicts; see obs/health.py), when the harness was
    # built with a HealthMonitor — None when health monitoring is off.
    alerts: Optional[List[Dict[str, Any]]] = None


class ScenarioHarness:
    """Run one declarative scenario as a single, self-cleaning cell.

    ``app`` is anything the chaos controller can drive: a
    :class:`~repro.streams.KafkaStreams` app or a
    :class:`BarrierAppAdapter`. The caller owns cluster/app construction
    (cells want fresh ones) and workload production; the harness owns
    chaos wiring, the recovery tracker, convergence, and teardown.
    """

    def __init__(
        self,
        cluster,
        app,
        scenario,
        seed: int,
        invariants: Optional[InvariantSuite] = None,
        horizon_ms: float = 3_000.0,
        chaos_overrides: Optional[Dict[str, Any]] = None,
        health=None,
    ) -> None:
        self.cluster = cluster
        self.app = app
        self.scenario = resolve_scenario(scenario)
        self.seed = seed
        self.horizon_ms = horizon_ms
        overrides = dict(self.scenario.config_overrides)
        overrides.update(chaos_overrides or {})
        self.config = ChaosConfig(
            horizon_ms=horizon_ms, kinds=self.scenario.kinds(), **overrides
        )
        self.tracker = RecoveryTracker(cluster.clock).install(cluster)
        # Optional HealthMonitor (repro.obs.health): installed on the
        # cluster now (so chaos debug bundles can attach its report) and
        # registered as an actor at arm() time, right after the chaos
        # controller — alerts then evaluate at the same safe points as
        # fault injection. Streams apps only (the watermark tracker walks
        # sub-topologies).
        self.health = health
        if health is not None:
            health.install()
        self.chaos = ChaosController(
            cluster,
            apps=[app],
            seed=seed,
            config=self.config,
            invariants=invariants,
        )
        self._armed = False

    # -- lifecycle -----------------------------------------------------------

    def arm(self) -> int:
        """Register the controller and schedule the scenario's script."""
        if self._armed:
            raise RuntimeError("harness already armed")
        self._armed = True
        self.app.driver.register(self.chaos)
        if self.health is not None:
            self.app.driver.register(self.health)
        return self.chaos.schedule_script(
            self.scenario.events_for(self.horizon_ms)
        )

    def run(
        self,
        golden_invariant: Optional[Invariant] = None,
        converge_rounds: int = 40,
        converge_advance_ms: float = 100.0,
        workload=None,
        workload_slices: int = 10,
    ) -> CellResult:
        """Arm, run past the last scripted fault, converge, final-check,
        tear down.

        ``golden_invariant`` (final-only, e.g. CommittedOutputEquality or
        FinalStateEquality) defines convergence: the first drain round in
        which it passes stamps the catchup boundary, so the measured gap
        is fault → genuine convergence, not fault → end-of-horizon.
        Natural repairs (broker restarts, instance replacements,
        transaction-timeout fencing) play out on their own timers during
        the converge rounds; quiesce only mops up afterwards.

        ``workload``, when given, is called with the slice index before
        each of ``workload_slices`` equal slices of the window from start
        to the *last scripted fault* — production finishes as the final
        fault lands, so faults hit an actively-processing app and the
        measured gap is backlog drain plus replay, never waiting on the
        generator (benchmarks use this; tests usually pre-produce).
        Teardown (uninstalling the tracker and deregistering the
        controller) runs even on invariant violations, so a sweeping
        process survives a failing cell intact.
        """
        try:
            self.arm()
            last_fault_ms = max(
                delay for delay, _ in self.scenario.events_for(self.horizon_ms)
            )
            if workload is not None:
                slice_ms = max(last_fault_ms / workload_slices, 1.0)
                for index in range(workload_slices):
                    workload(index)
                    self.app.run_for(slice_ms)
                # Through the last fault's safe-point application.
                self.app.run_for(1.0)
            else:
                # Through the last scripted fault's safe-point application.
                self.app.run_for(last_fault_ms + 1.0)
            converged, converged_at = self._converge(
                golden_invariant, converge_rounds, converge_advance_ms
            )
            self.chaos.quiesce()
            if not converged:
                # Everything healed by force; one full drain to settle.
                converged, converged_at = self._converge(golden_invariant, 8, 400.0)
            self.chaos.final_check()
            summary = None
            if self.tracker.fault_at is not None and self.tracker.recovered_at is not None:
                self.tracker.verify_telescoping()
                summary = self.tracker.summary()
            alerts = None
            if self.health is not None:
                alerts = [a.to_dict() for a in self.health.alerts]
            return CellResult(
                scenario=self.scenario.name,
                seed=self.seed,
                faults_injected=self.chaos.faults_injected,
                converged=converged,
                converged_at_ms=converged_at,
                recovery=summary,
                alerts=alerts,
            )
        finally:
            self.teardown()

    def _converge(
        self,
        golden_invariant: Optional[Invariant],
        rounds: int,
        advance_ms: float,
    ) -> Tuple[bool, Optional[float]]:
        """Drive bounded rounds until the golden invariant holds.

        Each round runs ``advance_ms`` of virtual time (letting repair
        and transaction-reaper timers fire), drains to idle, and tests
        the invariant. The first passing round stamps ``note_recovered``
        — the end of the catchup phase.
        """
        for _ in range(rounds):
            self.app.run_for(advance_ms)
            self.app.run_until_idle(max_steps=50_000)
            if golden_invariant is not None:
                try:
                    golden_invariant.check(self.cluster, final=True)
                except InvariantViolation:
                    self.cluster.clock.advance(advance_ms)
                    continue
            elif self.cluster.clock.now < self._quiet_until():
                continue
            if self.tracker.fault_at is not None:
                self.tracker.note_recovered()
            return True, self.cluster.clock.now
        return False, None

    def _quiet_until(self) -> float:
        """Without a golden reference, call the cell recovered once the
        last fault is at least a second in the past — long enough for
        repair timers and transaction timeouts at the default scales."""
        last = self.tracker.last_fault_at
        return (last or 0.0) + 1_000.0

    def teardown(self) -> None:
        """Leave the cluster with nothing armed: quiesced chaos, no
        tracker, no registered controller."""
        if not self.chaos._stopped:
            self.chaos.quiesce()
        self.app.driver.unregister(self.chaos)
        if self.health is not None:
            self.app.driver.unregister(self.health)
            self.health.uninstall()
        RecoveryTracker.uninstall(self.cluster)


class _AdapterConfig:
    """The ``config.application_id`` surface chaos bookkeeping expects."""

    def __init__(self, application_id: str) -> None:
        self.application_id = application_id


class BarrierAppAdapter:
    """Duck-types a :class:`BarrierEngine` as a chaos app.

    The engine is a single-process job, so the adapter is simultaneously
    the "app" and its only "instance": ``crash_instance`` kills the job
    (state and the open sink transaction are lost) and the controller's
    replacement repair calls :meth:`add_instance`, which recovers the job
    from its last completed checkpoint — the supervisor restart.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.cluster = engine.cluster
        self.config = _AdapterConfig(engine.job_name)
        self.all_source_topics = {engine.source_topic}
        self.instance_id = 0
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.engine.alive

    @property
    def instances(self) -> List["BarrierAppAdapter"]:
        return [self]

    @property
    def driver(self):
        return self.engine.driver

    def crash_instance(self, instance) -> None:
        self.engine.crash()

    def add_instance(self) -> "BarrierAppAdapter":
        self.engine.recover()
        self.restarts += 1
        return self

    def client_ids(self) -> List[str]:
        """Link faults target the job's source and sink clients."""
        return [
            f"{self.engine.job_name}-source",
            f"{self.engine.job_name}-sink",
        ]

    def run_for(self, duration_ms: float) -> int:
        return self.engine.run_for(duration_ms)

    def run_until_idle(self, max_steps: int = 10_000) -> int:
        # The driver's idle protocol already calls the engine's flush()
        # (committing any open sink transaction via a checkpoint).
        return self.engine.driver.run_until_idle(max_cycles=max_steps)

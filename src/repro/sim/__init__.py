"""Simulation substrate: virtual clock, scheduler, cost model, faults,
chaos orchestration, and invariant checking."""

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.network import FaultRule, Network
from repro.sim.failures import FailureInjector
from repro.sim.scheduler import Driver
from repro.sim.chaos import ALL_KINDS, ChaosConfig, ChaosController
from repro.sim.invariants import (
    ChangelogStateEquivalence,
    CommittedOutputEquality,
    HighWatermarkMonotonic,
    Invariant,
    InvariantSuite,
    InvariantViolation,
    ReadCommittedIsolation,
    ReplicaConsistency,
    committed_records,
)

__all__ = [
    "SimClock",
    "Driver",
    "Network",
    "CostModel",
    "FaultRule",
    "FailureInjector",
    "ALL_KINDS",
    "ChaosConfig",
    "ChaosController",
    "Invariant",
    "InvariantSuite",
    "InvariantViolation",
    "HighWatermarkMonotonic",
    "ReplicaConsistency",
    "ReadCommittedIsolation",
    "ChangelogStateEquivalence",
    "CommittedOutputEquality",
    "committed_records",
]

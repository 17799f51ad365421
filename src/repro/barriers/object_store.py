"""A simulated S3-like object store.

Checkpoint state files are PUT here. The defining property for Figure 5.b
is the *fixed per-file latency*: uploading a file costs tens of
milliseconds regardless of how few keys changed, so frequent checkpoints
pay a large fixed cost — "Flink's checkpointing is per-file based and
hence would take longer time when only a small number of keys are updated
within the interval" (Section 4.3).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


class ObjectStore:
    """Path -> object map with virtual-time PUT/GET latency, priced by
    ``costs`` (the cluster's model, or a copy for a different store)."""

    def __init__(
        self, clock: SimClock, costs: CostModel, charge_latency: bool = True
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.charge_latency = charge_latency
        self._objects: Dict[str, Any] = {}
        self.puts = 0

    def _charge(self, cost: float) -> None:
        if self.charge_latency:
            self.clock.advance(cost)

    def put(self, path: str, obj: Any, size_kb: float = 4.0) -> None:
        """Upload an object (one state file)."""
        self.puts += 1
        self._charge(self.costs.object_put(size_kb))
        self._objects[path] = obj

    def get(self, path: str) -> Any:
        self._charge(self.costs.object_get(4.0))
        if path not in self._objects:
            raise KeyError(path)
        return self._objects[path]

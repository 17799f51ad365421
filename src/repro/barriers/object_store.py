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


class ObjectStore:
    """Path -> object map with virtual-time PUT/GET latency."""

    def __init__(
        self,
        clock: SimClock,
        put_latency_ms: float = 25.0,
        get_latency_ms: float = 10.0,
        per_kb_ms: float = 0.05,
        charge_latency: bool = True,
    ) -> None:
        self.clock = clock
        self.put_latency_ms = put_latency_ms
        self.get_latency_ms = get_latency_ms
        self.per_kb_ms = per_kb_ms
        self.charge_latency = charge_latency
        self._objects: Dict[str, Any] = {}
        self.puts = 0
        self.gets = 0
        self.put_time_ms = 0.0

    def _charge(self, base_ms: float, size_kb: float) -> float:
        cost = base_ms + self.per_kb_ms * size_kb
        if self.charge_latency:
            self.clock.advance(cost)
        return cost

    def put(self, path: str, obj: Any, size_kb: float = 4.0) -> None:
        """Upload an object (one state file)."""
        self.puts += 1
        self.put_time_ms += self._charge(self.put_latency_ms, size_kb)
        self._objects[path] = obj

    def get(self, path: str) -> Any:
        self.gets += 1
        self._charge(self.get_latency_ms, 4.0)
        if path not in self._objects:
            raise KeyError(path)
        return self._objects[path]

    def exists(self, path: str) -> bool:
        return path in self._objects

    def list_paths(self, prefix: str = "") -> list:
        return sorted(p for p in self._objects if p.startswith(prefix))

    def delete(self, path: str) -> None:
        self._objects.pop(path, None)

"""The tile: N TriMedia-class cores around a shared L2.

The machine tracks core availability and busy-cycle accounting; the cache
hierarchy lives in :class:`~repro.spacecake.cache.CacheModel`.  Core
allocation is FIFO over the free list, which models Hinch's policy (any
idle processor takes the oldest ready job) and keeps simulations
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.spacecake.cache import CacheConfig, CacheModel

__all__ = ["MachineConfig", "Machine"]


@dataclass(frozen=True)
class MachineConfig:
    """One tile: up to 9 TriMedia cores in the paper's experiments.

    ``core_speeds`` models the paper's Cell direction (§6: "fast
    specialized vector engines"): per-core compute-speed multipliers
    (1.0 = a baseline TriMedia; 4.0 = a 4x faster vector engine).  Speed
    scales compute and runtime-overhead cycles; memory latency is a
    property of the hierarchy and stays unscaled.
    """

    nodes: int = 1
    cache: CacheConfig = field(default_factory=CacheConfig)
    core_speeds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise SimulationError(f"nodes must be >= 1, got {self.nodes}")
        if self.core_speeds is not None:
            if len(self.core_speeds) != self.nodes:
                raise SimulationError(
                    f"core_speeds has {len(self.core_speeds)} entries for "
                    f"{self.nodes} nodes"
                )
            if any(s <= 0 for s in self.core_speeds):
                raise SimulationError("core speeds must be > 0")

    def speed(self, core: int) -> float:
        if self.core_speeds is None:
            return 1.0
        return self.core_speeds[core]


class Machine:
    """Core allocation and utilization accounting for one simulation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.cache = CacheModel(config.nodes, config.cache)
        self._free: deque[int] = deque(range(config.nodes))
        self._busy: set[int] = set()
        self.busy_cycles = [0.0] * config.nodes
        self.jobs_run = [0] * config.nodes

    @property
    def nodes(self) -> int:
        return self.config.nodes

    def speed(self, core: int) -> float:
        return self.config.speed(core)

    def acquire_core(self) -> int | None:
        """Grab an idle core (FIFO), or None if all are busy."""
        if not self._free:
            return None
        core = self._free.popleft()
        self._busy.add(core)
        return core

    def release_core(self, core: int, busy_cycles: float) -> None:
        if core not in self._busy:
            raise SimulationError(f"release of non-busy core {core}")
        self._busy.discard(core)
        self._free.append(core)
        self.busy_cycles[core] += busy_cycles
        self.jobs_run[core] += 1

    def utilization(self, total_cycles: float) -> float:
        """Aggregate busy fraction over a run of ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        return sum(self.busy_cycles) / (total_cycles * self.nodes)

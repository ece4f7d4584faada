"""Per-job cycle and traffic costs for the SpaceCAKE model.

A job's virtual-time cost is::

    job_overhead                      (central-queue bookkeeping)
  + sync_overhead  (only if nodes>1)  (locks/fences; the paper disables
                                       all synchronization at 1 node)
  + compute_cycles                    (from the component's cost profile)
  + cache cycles for each port's traffic (via the CacheModel)

Component classes publish their own profile through
``Component.cost_profile(instance)``: cycle counts per pixel/block, plus
bytes only for ports with no plane format (bitstreams, coefficients).
A plane port's bytes come from the buffer plan the runtimes allocate,
the solved formats of :func:`~repro.analysis.formats.runtime_expectations`
(:meth:`CostModel.port_traffic`), so no byte count is written twice.
Classes without a profile get ``default_job_cycles`` and no traffic.
All constants live in :class:`CostParams`; the calibration tests
(``tests/test_calibration.py``) pin the *shape* of the paper's results
to them, and the ablation benchmarks sweep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro.core.program import ComponentInstance
from repro.errors import SimulationError

__all__ = ["PortTraffic", "JobCost", "CostParams", "CostModel"]


@dataclass(frozen=True)
class PortTraffic:
    """Bytes moved through one port during one job."""

    port: str
    nbytes: int
    write: bool

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise SimulationError(f"negative traffic on port {self.port!r}")


@dataclass(frozen=True)
class JobCost:
    """One job's intrinsic cost, before cache/overhead accounting."""

    compute_cycles: float
    traffic: tuple[PortTraffic, ...] = ()

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise SimulationError("negative compute_cycles")


@dataclass(frozen=True)
class CostParams:
    """Calibration constants of the machine model (see DESIGN.md §6)."""

    #: dispatch + queue bookkeeping per job, always charged
    job_overhead_cycles: float = 400.0
    #: lock/fence cost per job; charged only when nodes > 1 (paper §4.2)
    sync_overhead_cycles: float = 300.0
    #: manager poll at subgraph entry/exit
    manager_invoke_cycles: float = 300.0
    #: pure synchronization barrier node
    barrier_cycles: float = 50.0
    #: splice work per component added to / removed from the graph while
    #: quiescent (component *creation* happens concurrently beforehand)
    reconfig_splice_cycles: float = 5000.0
    #: fallback for component classes without a cost profile
    default_job_cycles: float = 10000.0

    def scaled(self, factor: float) -> "CostParams":
        """All overheads multiplied by ``factor`` (ablation support)."""
        return replace(
            self,
            job_overhead_cycles=self.job_overhead_cycles * factor,
            sync_overhead_cycles=self.sync_overhead_cycles * factor,
            manager_invoke_cycles=self.manager_invoke_cycles * factor,
            barrier_cycles=self.barrier_cycles * factor,
            reconfig_splice_cycles=self.reconfig_splice_cycles * factor,
        )


class CostModel:
    """Resolves a component instance to its :class:`JobCost`."""

    def __init__(
        self,
        registry: Mapping[str, type] | None = None,
        params: CostParams | None = None,
    ) -> None:
        self.registry = registry or {}
        self.params = params or CostParams()
        self._cache: dict[str, JobCost] = {}
        #: the cost of an instance whose class publishes no profile
        self._fallback = JobCost(compute_cycles=self.params.default_job_cycles)

    def job_cost(self, instance: ComponentInstance) -> JobCost:
        """Cost of one execution of ``instance`` (cached per instance)."""
        cached = self._cache.get(instance.instance_id)
        if cached is not None:
            return cached
        cost: JobCost | None = None
        cls = self.registry.get(instance.class_name)
        if cls is not None:
            profile = getattr(cls, "cost_profile", None)
            if profile is not None:
                cost = profile(instance)
        if cost is None:
            cost = self._fallback
        self._cache[instance.instance_id] = cost
        return cost

    def port_traffic(
        self,
        instance: ComponentInstance,
        planes: Mapping[str, tuple[tuple[int, ...], str]],
        aliases: Mapping[str, str],
    ) -> tuple[PortTraffic, ...]:
        """Bytes one job of ``instance`` moves, port by port.

        ``planes`` is the buffer plan (stream -> ``(shape, dtype)``),
        ``aliases`` the graph's raw -> effective stream names.  A port
        whose stream has a plan moves the plan's bytes, and a sliced
        copy ``1/n`` of them, plus ``2 * halo`` rows on its inputs when
        its class declares :attr:`~repro.hinch.component.Component.halo_rows`.
        Any other port moves what the class's profile lists for it.
        Inputs come first, then outputs, in ``PortSpec`` order: the
        cache model's access sequence.  No profile, no traffic.
        """
        cost = self.job_cost(instance)
        if cost is self._fallback:
            return ()
        cls = self.registry[instance.class_name]
        listed = {t.port: t for t in cost.traffic}
        n = instance.slice[1] if instance.slice is not None else None
        halo = cls.halo_rows(instance.params) if n and cls.halo_rows else 0
        spec = cls.ports
        traffic = []
        for write, ports in ((False, spec.inputs), (True, spec.outputs)):
            for port in ports:
                raw = instance.streams.get(port)
                plane = planes.get(aliases.get(raw, raw))
                if plane is None:
                    if port in listed:
                        traffic.append(listed[port])
                    continue
                shape, dtype = plane
                itemsize = np.dtype(dtype).itemsize
                nbytes = math.prod(shape) * itemsize
                if n is not None:
                    share = nbytes * (1.0 / n)
                    if halo and not write:
                        share += 2 * halo * math.prod(shape[1:]) * itemsize
                    nbytes = int(share)
                traffic.append(PortTraffic(port, nbytes, write))
        return tuple(traffic)

    def overhead_cycles(self, *, nodes: int) -> float:
        """Fixed per-job overhead for a machine with ``nodes`` cores."""
        cycles = self.params.job_overhead_cycles
        if nodes > 1:
            cycles += self.params.sync_overhead_cycles
        return cycles

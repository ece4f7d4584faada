"""Deadline analysis for real-time streaming (paper §6, future work).

"Currently, XSPCL does not provide the means to express deadlines in
real-time systems.  However, an XSPCL specification could be used to
estimate the worst case execution time by recursively traversing the
component graph."

This module closes that loop: given a per-frame cycle budget (the
deadline of a periodic streaming application, e.g. cycles-per-frame at
25 fps on a 200 MHz tile = 8 Mcycles), it checks whether a configuration
sustains the required throughput and latency, and searches for the
smallest node count that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.program import Program
from repro.errors import PredictionError
from repro.prediction.pamela import (
    DEFAULT_MEM_CYCLES_PER_BYTE,
    initiation_interval,
    modelled_iteration,
)
from repro.spacecake.costmodel import CostParams

__all__ = ["DeadlineReport", "check_deadline", "min_nodes_for_deadline"]


@dataclass(frozen=True)
class DeadlineReport:
    """Throughput/latency verdict for one (program, nodes, budget)."""

    nodes: int
    frame_budget_cycles: float
    #: steady-state initiation interval: one frame leaves every II cycles
    initiation_interval: float
    #: per-iteration span (latency from frame in to frame out)
    iteration_span: float
    #: serialized worst case (upper bound at any node count)
    wcet: float
    pipeline_depth: int

    @property
    def meets_throughput(self) -> bool:
        return self.initiation_interval <= self.frame_budget_cycles

    @property
    def latency_frames(self) -> float:
        """Pipeline latency expressed in frame periods."""
        return self.iteration_span / self.frame_budget_cycles

    @property
    def headroom(self) -> float:
        """Fraction of the budget left per frame (negative = miss)."""
        return 1.0 - self.initiation_interval / self.frame_budget_cycles


def check_deadline(
    program: Program,
    registry: Mapping[str, type],
    *,
    nodes: int,
    frame_budget_cycles: float,
    pipeline_depth: int = 5,
    cost_params: CostParams | None = None,
    option_states: Mapping[str, bool] | None = None,
    mem_cycles_per_byte: float = DEFAULT_MEM_CYCLES_PER_BYTE,
) -> DeadlineReport:
    """Analyse whether the configuration sustains one frame per budget."""
    iteration = modelled_iteration(
        program, registry, option_states, cost_params=cost_params,
        mem_cycles_per_byte=mem_cycles_per_byte,
    )
    return _report(iteration, nodes, frame_budget_cycles, pipeline_depth)


def _report(iteration, nodes: int, frame_budget_cycles: float,
            pipeline_depth: int) -> DeadlineReport:
    if frame_budget_cycles <= 0:
        raise PredictionError(
            f"frame budget must be > 0, got {frame_budget_cycles}"
        )
    span, work, heaviest = iteration(nodes)
    return DeadlineReport(
        nodes=nodes,
        frame_budget_cycles=frame_budget_cycles,
        initiation_interval=initiation_interval(
            span, work, heaviest, nodes=nodes, pipeline_depth=pipeline_depth),
        iteration_span=span,
        wcet=work,
        pipeline_depth=pipeline_depth,
    )


def min_nodes_for_deadline(
    program: Program,
    registry: Mapping[str, type],
    *,
    frame_budget_cycles: float,
    max_nodes: int = 9,
    pipeline_depth: int = 5,
    cost_params: CostParams | None = None,
    option_states: Mapping[str, bool] | None = None,
) -> DeadlineReport | None:
    """Smallest node count (<= max_nodes) meeting the budget, or None.

    Monotone in nodes (work/P shrinks, span never grows), so a linear
    scan from 1 suffices; the tile caps at 9 cores anyway.  The graph is
    built and its formats solved once for the whole scan.
    """
    iteration = modelled_iteration(program, registry, option_states,
                                   cost_params=cost_params)
    for nodes in range(1, max_nodes + 1):
        report = _report(iteration, nodes, frame_budget_cycles,
                         pipeline_depth)
        if report.meets_throughput:
            return report
    return None

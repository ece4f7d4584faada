"""PAMELA/SPC-style analytic performance prediction.

The SPC model evaluates a series-parallel composition recursively, and
an expanded :class:`~repro.core.program.Program` already is one:
:func:`iteration_cost` walks ``program.root`` for one option state.

* a leaf costs its job's cycles (compute + runtime overhead + memory
  traffic at an assumed blended rate; a plane port's bytes are the
  configuration's buffer plan, as in the simulator), a manager its
  enter and exit polls;
* series composition adds;
* parallel composition on ``P`` processors is bounded below by both the
  critical path (longest child) and the aggregated work divided by ``P``
  — van Gemund's contention term.  We predict with that lower bound,
  which for the paper's wide, regular parallel sections is tight.

A crossdep region is not series-parallel; the walk SP-izes it the way
the paper prescribes, a parallel block per parblock with the parblocks
in series ("a synchronization point between the parblocks").

Whole-run prediction adds the software-pipeline model: with iteration
span ``S``, per-iteration work ``W``, ``P`` processors, pipeline depth
``D`` and heaviest single job ``L``, iterations initiate every
``II = max(W/P, S/D, L)`` cycles and the run takes ``S + (iters-1)*II``.
The ``L`` term is the stateful-component bound: a component must finish
iteration *k* before starting *k+1*, so one heavyweight serial stage
(JPiP's entropy decoder) caps throughput no matter how many cores exist.

The two WCET bounds of the paper's future work ("an XSPCL specification
could be used to estimate the worst case execution time by recursively
traversing the component graph") come from the same walk:
:func:`wcet_sequential`, every job serialized, holds on any number of
processors; :func:`wcet_span`, the critical path, is the floor no
machine beats.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.analysis.formats import runtime_expectations
from repro.core.program import (
    ComponentInstance,
    IRCrossdep,
    IRLeaf,
    IRManager,
    IRNode,
    IROption,
    IRParallel,
    IRSeries,
    Program,
)
from repro.errors import PredictionError, ValidationError
from repro.spacecake.costmodel import CostModel, CostParams

__all__ = [
    "LeafCostFn",
    "cost_model_leaf_fn",
    "iteration_cost",
    "initiation_interval",
    "modelled_iteration",
    "predict_iteration",
    "predict_run",
    "wcet_sequential",
    "wcet_span",
]

#: maps a component instance to the cycles one job of it costs
LeafCostFn = Callable[[ComponentInstance], float]

#: default blended memory rate for predicted traffic (between the L2 and
#: DRAM per-byte rates of the cache model — prediction has no cache state;
#: calibrated against the simulator in tests/prediction)
DEFAULT_MEM_CYCLES_PER_BYTE = 0.65

_SERIES, _PARALLEL = "series", "parallel"


def iteration_cost(
    program: Program,
    leaf_cost: LeafCostFn,
    option_states: Mapping[str, bool] | None = None,
    *,
    nodes: float,
    manager_cycles: float = 0.0,
) -> tuple[float, float, float]:
    """``(span, work, heaviest)`` of one iteration on ``nodes`` processors.

    ``span`` is van Gemund's estimate (``max(span, work/P)`` at each
    parallel block), ``work`` the sum of every job and ``heaviest`` the
    costliest single job; a manager's enter and exit each cost
    ``manager_cycles``.  Compositions flatten before they are evaluated:
    a series in a series (or parallel in a parallel) splices into its
    parent, a one-child composition is its child, and disabled options
    and empty composites vanish.  ``nodes=math.inf`` drops the
    contention term, leaving the critical path.
    """
    if nodes < 1:
        raise PredictionError(f"nodes must be >= 1, got {nodes}")
    states = program.default_option_states()
    if option_states:
        states.update(option_states)
    work = heaviest = 0.0

    def leaf(cost: float) -> tuple[str | None, list[tuple[float, float]]]:
        nonlocal work, heaviest
        work += cost
        heaviest = max(heaviest, cost)
        return None, [(cost, cost)]

    def summary(kind, terms) -> tuple[float, float]:
        """``(span, work)`` of one composition of ``(span, work)`` terms."""
        if kind is None:
            return terms[0]
        total = sum(w for _, w in terms)
        if kind == _SERIES:
            return sum(s for s, _ in terms), total
        return max(max(s for s, _ in terms), total / nodes), total

    def compose(kind, parts):
        parts = [p for p in parts if p is not None]
        if len(parts) <= 1:
            return parts[0] if parts else None
        terms: list[tuple[float, float]] = []
        for part_kind, part_terms in parts:
            if part_kind == kind:
                terms.extend(part_terms)
            else:
                terms.append(summary(part_kind, part_terms))
        return kind, terms

    def walk(node: IRNode):
        if isinstance(node, IRLeaf):
            return leaf(leaf_cost(node.instance))
        if isinstance(node, IRSeries):
            return compose(_SERIES, [walk(c) for c in node.children])
        if isinstance(node, IRParallel):
            return compose(_PARALLEL, [walk(c) for c in node.children])
        if isinstance(node, IRCrossdep):
            return compose(_SERIES, [
                compose(_PARALLEL, [walk(c) for c in parblock])
                for parblock in node.parblocks
            ])
        if isinstance(node, IRManager):
            enter = leaf(manager_cycles)
            return compose(_SERIES, [enter, walk(node.child),
                                     leaf(manager_cycles)])
        if isinstance(node, IROption):
            return walk(node.child) if states[node.qname] else None
        raise AssertionError(f"unknown IR node {type(node).__name__}")

    root = walk(program.root)
    if root is None:
        raise ValidationError("program has no active components")
    return summary(*root)[0], work, heaviest


def predict_iteration(
    program: Program,
    nodes: int,
    leaf_cost: LeafCostFn,
    option_states: Mapping[str, bool] | None = None,
    *,
    manager_cycles: float = 0.0,
) -> float:
    """Predicted cycles for one iteration of ``program`` on ``nodes``."""
    return iteration_cost(program, leaf_cost, option_states, nodes=nodes,
                          manager_cycles=manager_cycles)[0]


def wcet_sequential(
    program: Program,
    leaf_cost: LeafCostFn,
    option_states: Mapping[str, bool] | None = None,
    *,
    manager_cycles: float = 0.0,
) -> float:
    """Upper bound: total work, as if run on a single processor."""
    return iteration_cost(program, leaf_cost, option_states, nodes=1,
                          manager_cycles=manager_cycles)[1]


def wcet_span(
    program: Program,
    leaf_cost: LeafCostFn,
    option_states: Mapping[str, bool] | None = None,
    *,
    manager_cycles: float = 0.0,
) -> float:
    """Lower bound: the critical path, on unboundedly many processors."""
    return iteration_cost(program, leaf_cost, option_states, nodes=math.inf,
                          manager_cycles=manager_cycles)[0]


def initiation_interval(
    span: float, work: float, heaviest: float, *, nodes: int,
    pipeline_depth: int,
) -> float:
    """Cycles between two iterations' starts: ``max(W/P, S/D, L)``."""
    return max(work / nodes, span / pipeline_depth, heaviest)


def cost_model_leaf_fn(
    cost_model: CostModel,
    program: Program,
    option_states: Mapping[str, bool] | None = None,
    *,
    nodes: int,
    mem_cycles_per_byte: float = DEFAULT_MEM_CYCLES_PER_BYTE,
) -> LeafCostFn:
    """Job costs from the SpaceCAKE cost model.

    An instance costs its profile's compute cycles, the per-job overhead
    on ``nodes`` cores, and the bytes :meth:`CostModel.port_traffic`
    charges under the buffer plan of ``program``'s ``option_states``
    configuration.
    """
    return _job_costs(cost_model, program, option_states,
                      mem_cycles_per_byte)(nodes)


def _job_costs(
    cost_model: CostModel,
    program: Program,
    option_states: Mapping[str, bool] | None,
    mem_cycles_per_byte: float,
) -> Callable[[int], LeafCostFn]:
    """``nodes -> LeafCostFn``, building the graph and solving its
    formats once for every node count."""
    pg = program.build_graph(option_states)
    planes = runtime_expectations(program, pg)

    def at(nodes: int) -> LeafCostFn:
        overhead = cost_model.overhead_cycles(nodes=nodes)

        def fn(instance: ComponentInstance) -> float:
            traffic = sum(t.nbytes for t in cost_model.port_traffic(
                instance, planes, pg.aliases))
            return (
                cost_model.job_cost(instance).compute_cycles
                + overhead
                + traffic * mem_cycles_per_byte
            )

        return fn

    return at


def modelled_iteration(
    program: Program,
    registry: Mapping[str, type],
    option_states: Mapping[str, bool] | None = None,
    *,
    cost_params: CostParams | None = None,
    mem_cycles_per_byte: float = DEFAULT_MEM_CYCLES_PER_BYTE,
) -> Callable[[int], tuple[float, float, float]]:
    """``nodes -> (span, work, heaviest)`` under the SpaceCAKE cost model.

    ``registry`` maps class names to Component implementations so their
    cost profiles can be consulted (the registry the simulator uses).
    """
    cost_model = CostModel(registry, cost_params)
    job_costs = _job_costs(cost_model, program, option_states,
                           mem_cycles_per_byte)
    manager_cycles = cost_model.params.manager_invoke_cycles
    return lambda nodes: iteration_cost(
        program, job_costs(nodes), option_states, nodes=nodes,
        manager_cycles=manager_cycles,
    )


def predict_run(
    program: Program,
    registry: Mapping[str, type],
    *,
    nodes: int,
    iterations: int,
    pipeline_depth: int = 5,
    cost_params: CostParams | None = None,
    option_states: Mapping[str, bool] | None = None,
    mem_cycles_per_byte: float = DEFAULT_MEM_CYCLES_PER_BYTE,
) -> float:
    """Predicted cycles for a whole run (pipeline model, see module doc)."""
    if iterations < 1:
        raise PredictionError(f"iterations must be >= 1, got {iterations}")
    span, work, heaviest = modelled_iteration(
        program, registry, option_states, cost_params=cost_params,
        mem_cycles_per_byte=mem_cycles_per_byte,
    )(nodes)
    return span + (iterations - 1) * initiation_interval(
        span, work, heaviest, nodes=nodes, pipeline_depth=pipeline_depth)

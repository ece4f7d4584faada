"""PAMELA/SPC-style analytic performance prediction.

The SPC model evaluates a series-parallel composition tree recursively:

* a leaf costs its job's cycles (compute + runtime overhead + memory
  traffic at an assumed blended rate; a plane port's bytes are the
  configuration's buffer plan, as in the simulator);
* series composition adds;
* parallel composition on ``P`` processors is bounded below by both the
  critical path (longest child) and the aggregated work divided by ``P``
  — van Gemund's contention term.  We predict with that lower bound,
  which for the paper's wide, regular parallel sections is tight.

Whole-run prediction adds the software-pipeline model: with iteration
span ``S``, per-iteration work ``W``, ``P`` processors, pipeline depth
``D`` and heaviest single job ``L``, iterations initiate every
``II = max(W/P, S/D, L)`` cycles and the run takes ``S + (iters-1)*II``.
The ``L`` term is the stateful-component bound: a component must finish
iteration *k* before starting *k+1*, so one heavyweight serial stage
(JPiP's entropy decoder) caps throughput no matter how many cores exist.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.analysis.formats import runtime_expectations
from repro.core.program import ComponentInstance, Program
from repro.errors import PredictionError
from repro.graph.spc import Leaf, Parallel, Series, SPNode
from repro.spacecake.costmodel import CostModel, CostParams

__all__ = [
    "LeafCostFn",
    "cost_model_leaf_fn",
    "predict_iteration",
    "predict_run",
]

#: maps an SP leaf to its cost in cycles
LeafCostFn = Callable[[Leaf], float]

#: default blended memory rate for predicted traffic (between the L2 and
#: DRAM per-byte rates of the cache model — prediction has no cache state;
#: calibrated against the simulator in tests/prediction)
DEFAULT_MEM_CYCLES_PER_BYTE = 0.65


def cost_model_leaf_fn(
    cost_model: CostModel,
    program: Program,
    option_states: Mapping[str, bool] | None = None,
    *,
    nodes: int,
    mem_cycles_per_byte: float = DEFAULT_MEM_CYCLES_PER_BYTE,
) -> LeafCostFn:
    """Leaf costs from the SpaceCAKE cost model.

    Leaves carrying a :class:`ComponentInstance` payload get their job
    cost, with the bytes :meth:`CostModel.port_traffic` charges under
    the buffer plan of ``program``'s ``option_states`` configuration;
    synthetic leaves (manager enter/exit) get the manager invoke cost;
    barriers are free.
    """
    pg = program.build_graph(option_states)
    planes = runtime_expectations(program, pg)

    def fn(leaf: Leaf) -> float:
        instance = leaf.payload
        if isinstance(instance, ComponentInstance):
            traffic = sum(t.nbytes for t in cost_model.port_traffic(
                instance, planes, pg.aliases))
            return (
                cost_model.job_cost(instance).compute_cycles
                + cost_model.overhead_cycles(nodes=nodes)
                + traffic * mem_cycles_per_byte
            )
        if leaf.label.endswith((".enter", ".exit")):
            return cost_model.params.manager_invoke_cycles
        return leaf.weight

    return fn


def predict_iteration(tree: SPNode, nodes: int, leaf_cost: LeafCostFn) -> float:
    """Predicted cycles for one iteration of the SP tree on ``nodes``."""
    if nodes < 1:
        raise PredictionError(f"nodes must be >= 1, got {nodes}")

    def total_work(node: SPNode) -> float:
        if isinstance(node, Leaf):
            return leaf_cost(node)
        return sum(total_work(c) for c in node.children)  # type: ignore[attr-defined]

    def evaluate(node: SPNode) -> float:
        if isinstance(node, Leaf):
            return leaf_cost(node)
        if isinstance(node, Series):
            return sum(evaluate(c) for c in node.children)
        assert isinstance(node, Parallel)
        span = max(evaluate(c) for c in node.children)
        work = sum(total_work(c) for c in node.children)
        return max(span, work / nodes)

    return evaluate(tree)


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
    """Predicted cycles for a whole run (pipeline model, see module doc).

    ``registry`` maps class names to Component implementations so their
    cost profiles can be consulted (same registry the simulator uses).
    """
    if iterations < 1:
        raise PredictionError(f"iterations must be >= 1, got {iterations}")
    tree = program.to_sp_tree(option_states)
    cost_model = CostModel(registry, cost_params)
    leaf_cost = cost_model_leaf_fn(
        cost_model, program, option_states,
        nodes=nodes, mem_cycles_per_byte=mem_cycles_per_byte,
    )
    span = predict_iteration(tree, nodes, leaf_cost)
    work = sum(leaf_cost(leaf) for leaf in tree.leaves())
    heaviest = max(leaf_cost(leaf) for leaf in tree.leaves())
    initiation = max(work / nodes, span / pipeline_depth, heaviest)
    return span + (iterations - 1) * initiation

"""Worst-case execution time estimation (paper §6, future work).

"An XSPCL specification could be used to estimate the worst case
execution time by recursively traversing the component graph."  Two
bounds per iteration:

* :func:`wcet_sequential` — every leaf serialized (holds on any number
  of processors, including 1);
* :func:`wcet_span` — the critical path (the floor no machine can beat).

Any actual execution of one iteration lies between the two; the tests
assert the simulator respects both.
"""

from __future__ import annotations

from repro.graph.spc import Leaf, Parallel, Series, SPNode
from repro.prediction.pamela import LeafCostFn

__all__ = ["wcet_sequential", "wcet_span"]


def wcet_sequential(tree: SPNode, leaf_cost: LeafCostFn) -> float:
    """Upper bound: total work, as if run on a single processor."""
    return sum(leaf_cost(leaf) for leaf in tree.leaves())


def wcet_span(tree: SPNode, leaf_cost: LeafCostFn) -> float:
    """Lower bound: the critical path through the SP tree."""

    def evaluate(node: SPNode) -> float:
        if isinstance(node, Leaf):
            return leaf_cost(node)
        if isinstance(node, Series):
            return sum(evaluate(c) for c in node.children)
        assert isinstance(node, Parallel)
        return max(evaluate(c) for c in node.children)

    return evaluate(tree)


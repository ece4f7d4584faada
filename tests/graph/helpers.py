"""Random series-parallel programs for the graph and prediction tests.

``sp_programs()`` draws an expanded :class:`Program` whose IR is nested
series and parallel blocks of port-less ``task`` instances, each with a
weight ``w`` in its params.  ``Program.build_graph`` lowers it the way it
lowers every program, and ``weight`` is a prediction leaf cost.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.ports import PortSpec
from repro.core.program import (
    ComponentInstance,
    IRLeaf,
    IRNode,
    IRParallel,
    IRSeries,
    Program,
    iter_ir,
)


def weight(instance: ComponentInstance) -> float:
    return instance.params["w"]


def task(instance_id: str, w: float = 1.0) -> IRLeaf:
    return IRLeaf(ComponentInstance(instance_id, instance_id, "task",
                                    {"w": w}, {}))


def program(root: IRNode, *, options=None) -> Program:
    components = {node.instance.instance_id: node.instance
                  for node in iter_ir(root) if isinstance(node, IRLeaf)}
    return Program("sp", root, components, {}, options or {},
                   {"task": PortSpec()})


def sp_programs():
    """Up to 12 tasks of weight 1..9, in blocks of two or three."""

    def build(shape) -> Program:
        count = 0

        def ir(node) -> IRNode:
            nonlocal count
            if isinstance(node, int):
                count += 1
                return task(f"t{count}", float(node))
            kind, children = node
            return kind(tuple(ir(child) for child in children))

        return program(ir(shape))

    return st.recursive(
        st.integers(1, 9),
        lambda inner: st.tuples(
            st.sampled_from([IRSeries, IRParallel]),
            st.lists(inner, min_size=2, max_size=3),
        ),
        max_leaves=12,
    ).map(build)

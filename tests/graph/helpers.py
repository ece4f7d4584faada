"""Test-side lowering of an SP composition tree to a flat DAG.

The program lowers its own IR (``Program.build_graph``); generated SP
trees (``tests.graph.test_spc.sp_trees``) and the prediction trees of
``Program.to_sp_tree`` are lowered here, with ``add_node``/``add_edge``,
to exercise the graph analyses on them.
"""

from __future__ import annotations

from repro.graph import Leaf, Series, SPNode, TaskGraph


def lower(tree: SPNode) -> TaskGraph:
    """Series joins sinks to sources, parallel is a disjoint union.

    A junction plural on both sides gets a zero-weight barrier, which
    keeps the graph two-terminal series-parallel; a repeated leaf label
    gets a ``.n`` suffix.
    """
    graph = TaskGraph()
    used: dict[str, int] = {}

    def fresh(label: str) -> str:
        count = used[label] = used.get(label, -1) + 1
        return label if count == 0 else f"{label}.{count}"

    def connect(sinks: list[str], sources: list[str]) -> None:
        if len(sinks) > 1 and len(sources) > 1:
            join = graph.add_node(fresh("join"), kind="barrier",
                                  weight=0.0).node_id
            connect(sinks, [join])
            sinks = [join]
        for sink in sinks:
            for source in sources:
                graph.add_edge(sink, source)

    def build(node: SPNode) -> tuple[list[str], list[str]]:
        if isinstance(node, Leaf):
            nid = graph.add_node(fresh(node.label), label=node.label,
                                 payload=node.payload,
                                 weight=node.weight).node_id
            return [nid], [nid]
        parts = [build(child) for child in node.children]
        if isinstance(node, Series):
            for (_, sinks), (sources, _) in zip(parts, parts[1:]):
                connect(sinks, sources)
            return parts[0][0], parts[-1][1]
        return ([s for sources, _ in parts for s in sources],
                [s for _, sinks in parts for s in sinks])

    build(tree)
    return graph

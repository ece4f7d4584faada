"""Structural analyses on task graphs: SP recognition and SP-ization.

The SPC model allows efficient performance prediction, but XSPCL also
admits optimized non-SP subgraphs (``shape="crossdep"``).  The paper's
rule is: *"If performance prediction is required on this structure, it has
to be transformed into SP form by adding a synchronization point between
the parblocks."*  :func:`sp_ize` implements exactly that transformation
(synchronized layers), and :func:`is_series_parallel` implements classic
two-terminal series-parallel recognition so tests can verify which graphs
are SP before/after.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "is_series_parallel",
    "sp_reduction",
    "sp_ize",
    "topological_levels",
]

_VSRC = "__sp_virtual_source__"
_VSNK = "__sp_virtual_sink__"


def _as_two_terminal_multigraph(
    graph: TaskGraph,
) -> tuple[dict[str, Counter], dict[str, Counter], str, str]:
    """Build succ/pred multigraph adjacency with a single source and sink."""
    succ: dict[str, Counter] = {n.node_id: Counter() for n in graph}
    pred: dict[str, Counter] = {n.node_id: Counter() for n in graph}
    for u, v in graph.edges():
        succ[u][v] += 1
        pred[v][u] += 1

    sources = graph.sources()
    sinks = graph.sinks()
    if not sources or not sinks:
        raise GraphError("graph has no source or no sink (cyclic or empty)")

    src, snk = _VSRC, _VSNK
    succ[src] = Counter()
    pred[src] = Counter()
    succ[snk] = Counter()
    pred[snk] = Counter()
    for s in sources:
        succ[src][s] += 1
        pred[s][src] += 1
    for t in sinks:
        succ[t][snk] += 1
        pred[snk][t] += 1
    return succ, pred, src, snk


def sp_reduction(graph: TaskGraph) -> int:
    """Run series/parallel reductions to a fixpoint; return remaining edges.

    The input is first closed into a two-terminal DAG with a virtual
    source and sink.  Reductions:

    * **parallel**: collapse multi-edges ``u => v`` to a single edge;
    * **series**: a node with exactly one predecessor and one successor
      (and not the virtual terminals) is replaced by a direct edge.

    A two-terminal graph is series-parallel iff this terminates with a
    single edge from the virtual source to the virtual sink, i.e. a
    return value of 1.
    """
    if len(graph) == 0:
        return 1  # the empty graph is vacuously SP
    succ, pred, src, snk = _as_two_terminal_multigraph(graph)

    # Parallel reduction: multi-edges count once.
    def edge_count() -> int:
        return sum(1 for u in succ for _ in succ[u])  # distinct (u, v) pairs

    worklist = [n for n in succ if n not in (src, snk)]
    while worklist:
        node = worklist.pop()
        if node not in succ:
            continue
        if len(pred[node]) == 1 and len(succ[node]) == 1:
            (p,) = pred[node].keys()
            (s,) = succ[node].keys()
            if p == s:
                continue  # would create a self-loop; not reducible
            # Series-reduce: remove node, add edge p -> s (parallel
            # reduction is implicit because Counter collapses to one key).
            succ[p].pop(node, None)
            pred[s].pop(node, None)
            succ[p][s] += 1
            pred[s][p] += 1
            del succ[node]
            del pred[node]
            # p or s may have become series-reducible or have multi-edges.
            worklist.append(p)
            worklist.append(s)
        else:
            # Parallel reduction: clamp multi-edge multiplicities to 1;
            # that may enable a series reduction at either endpoint.
            changed = False
            for tgt, mult in list(succ[node].items()):
                if mult > 1:
                    succ[node][tgt] = 1
                    pred[tgt][node] = 1
                    changed = True
                    worklist.append(tgt)
            if changed:
                worklist.append(node)
    # Final sweep of parallel reductions at terminals.
    for node in list(succ):
        for tgt, mult in list(succ[node].items()):
            if mult > 1:
                succ[node][tgt] = 1
                pred[tgt][node] = 1
    return edge_count()


def is_series_parallel(graph: TaskGraph) -> bool:
    """True iff the (two-terminal closure of the) graph is series-parallel."""
    if not graph.is_acyclic():
        return False
    return sp_reduction(graph) == 1


def topological_levels(graph: TaskGraph) -> dict[str, int]:
    """Longest-path level of each node (sources are level 0)."""
    levels: dict[str, int] = {}
    for node_id in graph.topological_order():
        preds = graph.predecessors(node_id)
        levels[node_id] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def sp_ize(graph: TaskGraph, *, barrier_prefix: str = "sync") -> TaskGraph:
    """Return an SP over-approximation of ``graph`` via synchronized layers.

    Nodes are grouped by longest-path level; a barrier node is inserted
    between consecutive levels and the original edges are replaced by
    ``level L -> barrier_L -> level L+1`` edges.  Every original
    dependency is preserved transitively (an edge u->v implies
    ``level(u) < level(v)``), so the result is a conservative SP schedule
    — the paper's "synchronization point between the parblocks".

    Barriers have weight 0 and ``kind="barrier"``.
    """
    levels = topological_levels(graph)
    if not levels:
        return TaskGraph()
    max_level = max(levels.values())
    out = TaskGraph()
    for node in graph:
        out.add_node(
            node.node_id,
            label=node.label,
            kind=node.kind,
            payload=node.payload,
            weight=node.weight,
        )
    barriers: list[str] = []
    for lvl in range(max_level):
        bid = f"{barrier_prefix}.{lvl}"
        if bid in out:
            raise GraphError(f"barrier id {bid!r} collides with an existing node")
        out.add_node(bid, kind="barrier", weight=0.0)
        barriers.append(bid)
    by_level: dict[int, list[str]] = {}
    for node_id, lvl in levels.items():
        by_level.setdefault(lvl, []).append(node_id)
    for lvl in range(max_level):
        for node_id in by_level.get(lvl, []):
            out.add_edge(node_id, barriers[lvl])
        for node_id in by_level.get(lvl + 1, []):
            out.add_edge(barriers[lvl], node_id)
    return out

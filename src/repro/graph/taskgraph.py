"""Flat task graphs: the DAG one application iteration executes.

:meth:`repro.core.program.Program.build_graph` lowers an expanded
program to a :class:`TaskGraph` for one configuration: a node per active
component instance, barriers at plural series junctions, the sparse
cross-dependency edges of ``shape="crossdep"`` regions and the manager
pseudo-nodes.  The Hinch scheduler executes
one instance of this DAG per application iteration (with pipeline
parallelism *across* instances).

A :class:`TaskNode` carries:

``kind``
    ``"task"`` for a component execution, ``"barrier"`` for a
    synchronization point (a plural series junction, or one SP-ization
    inserts), ``"manager_enter"`` /
    ``"manager_exit"`` for the pseudo-nodes bracketing a managed
    (reconfigurable) subgraph.
``payload``
    Opaque handle, usually a component-instance descriptor.
``weight``
    Nominal cost used by prediction and by unit tests; the simulator uses
    the cost model instead.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import GraphError

__all__ = ["TaskNode", "TaskGraph"]

_KINDS = ("task", "barrier", "manager_enter", "manager_exit")


class TaskNode:
    """One node of a flat task graph."""

    __slots__ = ("node_id", "label", "kind", "payload", "weight")

    def __init__(
        self,
        node_id: str,
        *,
        label: str | None = None,
        kind: str = "task",
        payload: Any = None,
        weight: float = 1.0,
    ) -> None:
        if kind not in _KINDS:
            raise GraphError(f"unknown node kind {kind!r}; expected one of {_KINDS}")
        if weight < 0:
            raise GraphError(f"node weight must be >= 0, got {weight}")
        self.node_id = node_id
        self.label = label if label is not None else node_id
        self.kind = kind
        self.payload = payload
        self.weight = float(weight)

    @property
    def members(self) -> tuple:
        """The payload as a tuple: a grouped node carries several instances."""
        payload = self.payload
        return payload if isinstance(payload, tuple) else (payload,)

    def __repr__(self) -> str:
        return f"TaskNode({self.node_id!r}, kind={self.kind!r})"


class TaskGraph:
    """A directed acyclic graph of :class:`TaskNode` objects.

    Mutating operations maintain predecessor/successor indices; acyclicity
    is enforced lazily by :meth:`topological_order` (checking on every
    ``add_edge`` would make graph construction quadratic).
    """

    def __init__(self) -> None:
        self._nodes: dict[str, TaskNode] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        self._edge_set: set[tuple[str, str]] = set()

    # -- construction ------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        *,
        label: str | None = None,
        kind: str = "task",
        payload: Any = None,
        weight: float = 1.0,
    ) -> TaskNode:
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        node = TaskNode(
            node_id, label=label, kind=kind, payload=payload, weight=weight
        )
        self._nodes[node_id] = node
        self._succ[node_id] = []
        self._pred[node_id] = []
        return node

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._nodes:
            raise GraphError(f"unknown edge source {src!r}")
        if dst not in self._nodes:
            raise GraphError(f"unknown edge target {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if (src, dst) in self._edge_set:
            return  # idempotent: series over shared layers may repeat edges
        self._edge_set.add((src, dst))
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    # -- queries -----------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self._nodes.values())

    def node(self, node_id: str) -> TaskNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edge_set

    def edges(self) -> Iterator[tuple[str, str]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def successors(self, node_id: str) -> list[str]:
        try:
            return list(self._succ[node_id])
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def predecessors(self, node_id: str) -> list[str]:
        try:
            return list(self._pred[node_id])
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def in_degree(self, node_id: str) -> int:
        return len(self._pred[node_id])

    def out_degree(self, node_id: str) -> int:
        return len(self._succ[node_id])

    def sources(self) -> list[str]:
        """Nodes with no predecessors, in insertion order."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> list[str]:
        """Nodes with no successors, in insertion order."""
        return [n for n in self._nodes if not self._succ[n]]

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises :class:`GraphError` on a cycle."""
        indeg = {n: len(self._pred[n]) for n in self._nodes}
        frontier = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._nodes):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise GraphError(f"task graph contains a cycle through {stuck[:5]}")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphError:
            return False

    def descendants(self, node_id: str) -> set[str]:
        """All transitive successors of ``node_id`` (excluding itself)."""
        seen: set[str] = set()
        stack = list(self.successors(node_id))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ[cur])
        return seen

    def copy(self) -> "TaskGraph":
        dup = TaskGraph()
        for node in self:
            dup.add_node(
                node.node_id,
                label=node.label,
                kind=node.kind,
                payload=node.payload,
                weight=node.weight,
            )
        for src, dst in self.edges():
            dup.add_edge(src, dst)
        return dup

    def subgraph(self, keep: Iterable[str]) -> "TaskGraph":
        """Induced subgraph over ``keep`` (edges between kept nodes only)."""
        keep_set = set(keep)
        unknown = keep_set - set(self._nodes)
        if unknown:
            raise GraphError(f"unknown nodes in subgraph request: {sorted(unknown)[:5]}")
        sub = TaskGraph()
        for node_id in self._nodes:  # preserve insertion order
            if node_id in keep_set:
                node = self._nodes[node_id]
                sub.add_node(
                    node.node_id,
                    label=node.label,
                    kind=node.kind,
                    payload=node.payload,
                    weight=node.weight,
                )
        for src, dst in self.edges():
            if src in keep_set and dst in keep_set:
                sub.add_edge(src, dst)
        return sub

    def __repr__(self) -> str:
        return f"TaskGraph(nodes={len(self)}, edges={self.num_edges})"

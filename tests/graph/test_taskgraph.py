"""Unit tests for the flat task graph."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph import TaskGraph


def diamond() -> TaskGraph:
    g = TaskGraph()
    for n in "abcd":
        g.add_node(n)
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    return g


def test_add_node_and_lookup():
    g = TaskGraph()
    node = g.add_node("x", label="X", weight=2.5)
    assert g.node("x") is node
    assert "x" in g
    assert len(g) == 1
    assert node.label == "X"
    assert node.weight == 2.5


def test_duplicate_node_rejected():
    g = TaskGraph()
    g.add_node("x")
    with pytest.raises(GraphError):
        g.add_node("x")


def test_edge_endpoints_must_exist():
    g = TaskGraph()
    g.add_node("x")
    with pytest.raises(GraphError):
        g.add_edge("x", "y")
    with pytest.raises(GraphError):
        g.add_edge("y", "x")


def test_self_loop_rejected():
    g = TaskGraph()
    g.add_node("x")
    with pytest.raises(GraphError):
        g.add_edge("x", "x")


def test_duplicate_edge_is_idempotent():
    g = TaskGraph()
    g.add_node("a")
    g.add_node("b")
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    assert g.num_edges == 1
    assert g.successors("a") == ["b"]


def test_sources_sinks_degrees():
    g = diamond()
    assert g.sources() == ["a"]
    assert g.sinks() == ["d"]
    assert g.in_degree("d") == 2
    assert g.out_degree("a") == 2


def test_topological_order_respects_edges():
    g = diamond()
    order = g.topological_order()
    pos = {n: i for i, n in enumerate(order)}
    for u, v in g.edges():
        assert pos[u] < pos[v]


def test_cycle_detection():
    g = TaskGraph()
    for n in "ab":
        g.add_node(n)
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert not g.is_acyclic()
    with pytest.raises(GraphError, match="cycle"):
        g.topological_order()


def test_descendants():
    g = diamond()
    assert g.descendants("a") == {"b", "c", "d"}
    assert g.descendants("b") == {"d"}
    assert g.descendants("d") == set()


def test_copy_is_deep_structurally():
    g = diamond()
    dup = g.copy()
    dup.add_node("e")
    dup.add_edge("d", "e")
    assert "e" not in g
    assert g.num_edges == 4
    assert dup.num_edges == 5


def test_subgraph_induced():
    g = diamond()
    sub = g.subgraph(["a", "b", "d"])
    assert set(sub.node_ids) == {"a", "b", "d"}
    assert sub.has_edge("a", "b")
    assert sub.has_edge("b", "d")
    assert not sub.has_edge("a", "d")


def test_subgraph_unknown_node_rejected():
    g = diamond()
    with pytest.raises(GraphError):
        g.subgraph(["a", "zz"])


def test_node_kind_validation():
    g = TaskGraph()
    with pytest.raises(GraphError):
        g.add_node("x", kind="bogus")
    barrier = g.add_node("b", kind="barrier")
    assert barrier.kind == "barrier" and barrier.members == (None,)


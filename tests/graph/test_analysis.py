"""Tests for SP recognition and SP-ization."""

from __future__ import annotations

from hypothesis import given

from repro.graph import TaskGraph, is_series_parallel, sp_ize
from repro.graph.analysis import topological_levels

from tests.graph.helpers import sp_programs


def dag(*edges: str) -> TaskGraph:
    """A unit-weight DAG from ``"u>v"`` edges, nodes in order of mention."""
    g = TaskGraph()
    for edge in edges:
        for node_id in edge.split(">"):
            if node_id not in g:
                g.add_node(node_id)
        g.add_edge(*edge.split(">"))
    return g


def crossdep_graph(n_slices: int = 4) -> TaskGraph:
    """Two sliced parblocks with i-1/i/i+1 cross dependencies (paper Fig 5)."""
    g = TaskGraph()
    for i in range(n_slices):
        g.add_node(f"h{i}")
        g.add_node(f"v{i}")
    for i in range(n_slices):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n_slices:
                g.add_edge(f"h{j}", f"v{i}")
    return g


def test_single_node_is_sp():
    g = TaskGraph()
    g.add_node("a")
    assert is_series_parallel(g)


def test_empty_graph_is_sp():
    assert is_series_parallel(TaskGraph())


def test_chain_is_sp():
    g = dag("a>b", "b>c")
    assert is_series_parallel(g)


def test_diamond_is_sp():
    g = dag("s>a", "s>b", "a>t", "b>t")
    assert is_series_parallel(g)


def test_crossdep_is_not_sp():
    g = crossdep_graph(4)
    assert not is_series_parallel(g)


def test_n_graph_is_not_sp():
    # The canonical non-SP "N" shape: a->c, a->d, b->d
    g = TaskGraph()
    for n in "abcd":
        g.add_node(n)
    g.add_edge("a", "c")
    g.add_edge("a", "d")
    g.add_edge("b", "d")
    assert not is_series_parallel(g)


def test_cyclic_graph_is_not_sp():
    g = TaskGraph()
    g.add_node("a")
    g.add_node("b")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert not is_series_parallel(g)


def test_sp_ize_makes_crossdep_sp():
    g = crossdep_graph(5)
    sp = sp_ize(g)
    assert is_series_parallel(sp)


def test_sp_ize_preserves_dependencies_transitively():
    g = crossdep_graph(3)
    sp = sp_ize(g)
    for u, v in g.edges():
        assert v in sp.descendants(u), f"lost dependency {u}->{v}"


def test_sp_ize_preserves_task_nodes():
    g = crossdep_graph(3)
    sp = sp_ize(g)
    originals = {n.node_id for n in g}
    kept = {n.node_id for n in sp if n.kind == "task"}
    assert kept == originals


def test_sp_ize_barriers_have_zero_weight():
    sp = sp_ize(crossdep_graph(3))
    for node in sp:
        if node.kind == "barrier":
            assert node.weight == 0.0


def test_sp_ize_empty_graph():
    assert len(sp_ize(TaskGraph())) == 0


def test_topological_levels():
    g = dag("a>b", "a>c", "b>d", "c>d")
    levels = topological_levels(g)
    assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}


# -- properties --------------------------------------------------------------


@given(sp_programs())
def test_prop_lowered_sp_tree_is_recognized_sp(program):
    assert is_series_parallel(program.build_graph().graph)


@given(sp_programs())
def test_prop_sp_ize_idempotent_on_sp_structure(program):
    assert is_series_parallel(sp_ize(program.build_graph().graph))

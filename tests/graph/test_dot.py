"""Tests for DOT export."""

from __future__ import annotations

from repro.graph import TaskGraph
from repro.graph.dot import taskgraph_to_dot


def test_taskgraph_dot_structure():
    g = TaskGraph()
    g.add_node("a")
    g.add_node("b", kind="barrier")
    g.add_edge("a", "b")
    dot = taskgraph_to_dot(g, name="demo")
    assert dot.startswith('digraph "demo"')
    assert '"a" -> "b";' in dot
    assert "diamond" in dot  # barrier styling
    assert dot.rstrip().endswith("}")


def test_taskgraph_dot_escapes_quotes():
    g = TaskGraph()
    g.add_node('we"ird')
    dot = taskgraph_to_dot(g)
    assert '\\"' in dot


def test_taskgraph_dot_manager_styles():
    g = TaskGraph()
    g.add_node("m.enter", kind="manager_enter")
    g.add_node("m.exit", kind="manager_exit")
    dot = taskgraph_to_dot(g)
    assert "invtrapezium" in dot
    assert "trapezium" in dot


def test_dot_output_parses_as_balanced():
    from repro.apps import build_blur, make_program

    pg = make_program(build_blur(3, slices=3), name="b").build_graph()
    dot = taskgraph_to_dot(pg.graph)
    assert dot.count("{") == dot.count("}")
    # every node declared once
    for node in pg.graph.node_ids:
        assert f'"{node}"' in dot

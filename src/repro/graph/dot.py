"""DOT (graphviz) export for task graphs.

Purely textual — no graphviz dependency.  Useful for debugging expanded
applications and for documentation; the examples write ``.dot`` files a
user can render with ``dot -Tpng``.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph

__all__ = ["taskgraph_to_dot"]

_KIND_STYLE = {
    "task": ("box", "white"),
    "barrier": ("diamond", "gray85"),
    "manager_enter": ("invtrapezium", "lightblue"),
    "manager_exit": ("trapezium", "lightblue"),
}


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def taskgraph_to_dot(graph: TaskGraph, *, name: str = "taskgraph") -> str:
    """Render a :class:`TaskGraph` as a DOT digraph string."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=TB;", "  node [fontsize=10];"]
    for node in graph:
        shape, fill = _KIND_STYLE.get(node.kind, ("box", "white"))
        lines.append(
            f"  {_quote(node.node_id)} [label={_quote(node.label)} "
            f"shape={shape} style=filled fillcolor={_quote(fill)}];"
        )
    for src, dst in graph.edges():
        lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

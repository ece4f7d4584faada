"""Tests for Program.build_graph: task graphs per option configuration."""

from __future__ import annotations

import pytest

from repro.core import AppBuilder, expand
from repro.errors import ReconfigurationError, ValidationError
from repro.graph import is_series_parallel, sp_ize
from repro.prediction import predict_iteration, wcet_sequential, wcet_span


def pipeline_prog(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    main.component("f", "filter", streams={"input": "raw", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    return expand(b.build(), registry)


def test_linear_graph(registry):
    pg = pipeline_prog(registry).build_graph()
    assert set(pg.graph.node_ids) == {"src", "f", "snk"}
    assert pg.graph.has_edge("src", "f")
    assert pg.graph.has_edge("f", "snk")
    assert pg.active_components == ("src", "f", "snk")


def test_stream_table_orientation(registry):
    pg = pipeline_prog(registry).build_graph()
    raw = pg.streams["raw"]
    assert [w.instance_id for w in raw.writers] == ["src"]
    assert [r.instance_id for r in raw.readers] == ["f"]
    assert raw.writers[0].port == "output"
    assert raw.readers[0].port == "input"


def test_slice_copies_in_graph(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("slice", n=4):
        main.component("f", "filter", streams={"input": "raw", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    pg = expand(b.build(), registry).build_graph()
    for i in range(4):
        assert pg.graph.has_edge("src", f"f[{i}]")
        assert pg.graph.has_edge(f"f[{i}]", "snk")
    # one logical writer with 4 slice endpoints
    assert len(pg.streams["out"].writers) == 4


def test_crossdep_edges(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("crossdep", n=4):
        with main.parblock():
            main.component("h", "filter", streams={"input": "raw", "output": "mid"})
        with main.parblock():
            main.component("v", "filter", streams={"input": "mid", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    pg = expand(b.build(), registry).build_graph()
    g = pg.graph
    # v[i] depends on h[i-1], h[i], h[i+1] (clamped) — paper Fig. 5
    for i in range(4):
        for j in range(4):
            if abs(i - j) <= 1:
                assert g.has_edge(f"h[{j}]", f"v[{i}]")
            else:
                assert not g.has_edge(f"h[{j}]", f"v[{i}]")
    assert not is_series_parallel(g)


def test_crossdep_region_entry_and_exit(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("crossdep", n=3):
        with main.parblock():
            main.component("h", "filter", streams={"input": "raw", "output": "mid"})
        with main.parblock():
            main.component("v", "filter", streams={"input": "mid", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    pg = expand(b.build(), registry).build_graph()
    # all h copies start the region; all v copies must finish before snk
    for i in range(3):
        assert pg.graph.has_edge("src", f"h[{i}]")
        assert pg.graph.has_edge(f"v[{i}]", "snk")


def test_manager_enter_exit_bracket_subgraph(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q"):
        main.component("f", "filter", streams={"input": "a", "output": "b"})
    main.component("snk", "sink", streams={"input": "b"})
    pg = expand(b.build(), registry).build_graph()
    g = pg.graph
    assert g.node("m.enter").kind == "manager_enter"
    assert g.node("m.exit").kind == "manager_exit"
    assert g.has_edge("src", "m.enter")
    assert g.has_edge("m.enter", "f")
    assert g.has_edge("f", "m.exit")
    assert g.has_edge("m.exit", "snk")


def test_option_disabled_drops_nodes(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q"):
        main.component("f1", "filter", streams={"input": "a", "output": "b"})
        with main.option("opt", enabled=True, bypass=[("b", "c")]):
            main.component("f2", "filter", streams={"input": "b", "output": "c"})
    main.component("snk", "sink", streams={"input": "c"})
    prog = expand(b.build(), registry)

    enabled = prog.build_graph({"opt": True})
    assert "f2" in enabled.graph
    assert enabled.aliases == {}

    # Disabled: f2 vanishes; the bypass redirects stream 'b' onto 'c', so
    # f1 feeds the sink directly.
    disabled = prog.build_graph({"opt": False})
    assert "f2" not in disabled.graph
    assert disabled.aliases == {"b": "c"}


def test_bypass_rewires_stream_table(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q"):
        main.component("f1", "filter", streams={"input": "a", "output": "mid"})
        with main.option("pip2", enabled=True, bypass=[("mid", "final")]):
            main.component("f2", "filter", streams={"input": "mid", "output": "final"})
    main.component("snk", "sink", streams={"input": "final"})
    prog = expand(b.build(), registry)

    on = prog.build_graph()
    assert [w.instance_id for w in on.streams["final"].writers] == ["f2"]
    assert [w.instance_id for w in on.streams["mid"].writers] == ["f1"]

    off = prog.build_graph({"pip2": False})
    # f1 now writes 'final' directly; stream 'mid' no longer exists.
    assert [w.instance_id for w in off.streams["final"].writers] == ["f1"]
    assert "mid" not in off.streams


def test_unknown_option_rejected(registry):
    prog = pipeline_prog(registry)
    with pytest.raises(ReconfigurationError, match="unknown options"):
        prog.build_graph({"ghost": True})


def test_two_writers_rejected(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("s1", "source", streams={"output": "x"})
    main.component("s2", "source", streams={"output": "x"})
    main.component("snk", "sink", streams={"input": "x"})
    prog = expand(b.build(), registry)
    with pytest.raises(ValidationError, match="multiple logical writers"):
        prog.build_graph()


def test_read_without_writer_rejected(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("snk", "sink", streams={"input": "ghost"})
    prog = expand(b.build(), registry)
    with pytest.raises(ValidationError, match="no.*active writer"):
        prog.build_graph()


def test_reader_before_writer_rejected(registry):
    # snk reads 'out' but is composed BEFORE the filter that writes it.
    b = AppBuilder()
    main = b.procedure("main")
    main.component("snk", "sink", streams={"input": "out"})
    main.component("src", "source", streams={"output": "raw"})
    main.component("f", "filter", streams={"input": "raw", "output": "out"})
    prog = expand(b.build(), registry)
    with pytest.raises(ValidationError, match="not scheduled after"):
        prog.build_graph()


def test_disabled_manager_body_still_has_enter_exit(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    main.component("snk", "sink", streams={"input": "a"})
    with main.manager("m", queue="q"):
        with main.option("o", enabled=False):
            main.component("f", "filter", streams={"input": "a", "output": "b"})
    pg = expand(b.build(), registry).build_graph()
    assert pg.graph.has_edge("m.enter", "m.exit")


def unit(instance):
    return 1.0


def test_prediction_spizes_crossdep(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("crossdep", n=3):
        with main.parblock():
            main.component("h", "filter", streams={"input": "raw", "output": "mid"})
        with main.parblock():
            main.component("v", "filter", streams={"input": "mid", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    prog = expand(b.build(), registry)
    graph = prog.build_graph().graph
    assert not is_series_parallel(graph)
    assert is_series_parallel(sp_ize(graph))
    # prediction walks the same SP form: src; (h[0] | h[1] | h[2]); (v...); snk
    assert wcet_span(prog, unit) == 4
    assert predict_iteration(prog, 3, unit) == 4
    assert wcet_sequential(prog, unit) == 8


def test_prediction_respects_option_states(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q"):
        with main.option("o", enabled=True):
            main.component("f", "filter", streams={"input": "a", "output": "b"})
    main.component("snk", "sink", streams={"input": "a"})
    prog = expand(b.build(), registry)
    assert wcet_sequential(prog, unit, {"o": True}, manager_cycles=5) == 13
    assert wcet_sequential(prog, unit, {"o": False}, manager_cycles=5) == 12
    assert wcet_sequential(prog, unit, manager_cycles=5) == 13


def test_graph_is_acyclic_and_ordered(registry):
    pg = pipeline_prog(registry).build_graph()
    order = pg.graph.topological_order()
    assert order.index("src") < order.index("f") < order.index("snk")

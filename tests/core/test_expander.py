"""Tests for procedure inlining, replication, and manager collection."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import build_audio, build_blur, build_jpip, build_pip
from repro.components.registry import default_ports
from repro.core import AppBuilder, expand, parse_file
from repro.core.program import (
    IRCrossdep,
    IRLeaf,
    IRManager,
    IROption,
    IRParallel,
    iter_ir,
)
from repro.errors import ExpansionError
from repro.fuzz.generator import case_from_dict
from repro.fuzz.runner import build_spec


def test_simple_pipeline_instances(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    main.component("f", "filter", streams={"input": "raw", "output": "out"},
                   params={"factor": 2})
    main.component("snk", "sink", streams={"input": "out"})
    prog = expand(b.build(), registry)
    assert set(prog.components) == {"src", "f", "snk"}
    f = prog.components["f"]
    assert f.class_name == "filter"
    assert f.params == {"factor": 2}
    assert f.streams == {"input": "raw", "output": "out"}
    assert f.slice is None


def test_call_inlining_qualifies_names(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    main.call("chain", name="c1", streams={"in": "raw", "out": "mid"},
              params={"factor": 3})
    main.call("chain", name="c2", streams={"in": "mid", "out": "out"},
              params={"factor": 5})
    main.component("snk", "sink", streams={"input": "out"})
    chain = b.procedure("chain", stream_formals=["in", "out"],
                        param_formals={"factor": None})
    chain.component("f", "filter",
                    streams={"input": "${in}", "output": "${out}"},
                    params={"factor": "${factor}"})
    prog = expand(b.build(), registry)
    assert set(prog.components) == {"src", "c1/f", "c2/f", "snk"}
    assert prog.components["c1/f"].params == {"factor": 3}
    assert prog.components["c2/f"].params == {"factor": 5}
    assert prog.components["c1/f"].streams == {"input": "raw", "output": "mid"}
    assert prog.components["c2/f"].streams == {"input": "mid", "output": "out"}


def test_local_streams_are_scoped_per_call(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.call("p", name="a", streams={"out": "x"})
    main.call("p", name="b", streams={"out": "y"})
    main.component("m", "merge", streams={"a": "x", "b": "y", "output": "z"})
    main.component("snk", "sink", streams={"input": "z"})
    p = b.procedure("p", stream_formals=["out"])
    p.component("src", "source", streams={"output": "tmp"})
    p.component("f", "filter", streams={"input": "tmp", "output": "${out}"})
    prog = expand(b.build(), registry)
    # Each instantiation gets its own 'tmp' stream.
    assert prog.components["a/src"].streams["output"] == "a/tmp"
    assert prog.components["b/src"].streams["output"] == "b/tmp"
    assert prog.components["a/f"].streams == {"input": "a/tmp", "output": "x"}


def test_default_param_used_when_omitted(registry):
    b = AppBuilder()
    b.procedure("main").call("p", streams={"out": "s"})
    p = b.procedure("p", stream_formals=["out"], param_formals={"rate": 30})
    p.component("src", "source", streams={"output": "${out}"},
                params={"rate": "${rate}"})
    prog = expand(b.build(), registry)
    assert prog.components["p/src"].params == {"rate": 30}


def test_placeholder_in_longer_string(registry):
    b = AppBuilder()
    b.procedure("main").call("p", streams={"out": "s"}, params={"n": 7})
    p = b.procedure("p", stream_formals=["out"], param_formals={"n": None})
    p.component("src", "source", streams={"output": "${out}"},
                params={"rate": "x${n}y"})
    prog = expand(b.build(), registry)
    assert prog.components["p/src"].params == {"rate": "x7y"}


def test_slice_replication(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("slice", n=4):
        main.component("f", "filter", streams={"input": "raw", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    prog = expand(b.build(), registry)
    copies = [c for c in prog.components.values() if c.definition_id == "f"]
    assert len(copies) == 4
    assert sorted(c.instance_id for c in copies) == [
        "f[0]", "f[1]", "f[2]", "f[3]"
    ]
    assert {c.slice for c in copies} == {(0, 4), (1, 4), (2, 4), (3, 4)}
    # All copies share the same streams (whole-frame buffer model).
    assert all(c.streams == {"input": "raw", "output": "out"} for c in copies)


def test_parametric_slice_count(registry):
    b = AppBuilder()
    b.procedure("main").call("p", streams={"out": "s"}, params={"n": 3})
    p = b.procedure("p", stream_formals=["out"], param_formals={"n": None})
    with p.parallel("slice", n="${n}"):
        p.component("src", "source", streams={"output": "${out}"})
    prog = expand(b.build(), registry)
    assert len(prog.components) == 3


def test_crossdep_structure(registry):
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
    crossdeps = [n for n in iter_ir(prog.root) if isinstance(n, IRCrossdep)]
    assert len(crossdeps) == 1
    cd = crossdeps[0]
    assert len(cd.parblocks) == 2
    assert len(cd.parblocks[0]) == 3  # 3 copies of h
    assert prog.components["h[1]"].slice == (1, 3)
    assert prog.components["v[2]"].slice == (2, 3)


def test_nested_replication_rejected(registry):
    b = AppBuilder()
    main = b.procedure("main")
    with main.parallel("slice", n=2):
        with main.parallel("slice", n=2):
            main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ExpansionError, match="nested data-parallel"):
        expand(b.build(), registry)


def test_slice_region_nested_inside_crossdep_is_rejected_at_expand(registry):
    """A slice region inside a crossdep parblock is refused, not silently
    flattened: replicating copies inside a halo region would change what
    the neighbouring copies see."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "raw"})
    with main.parallel("crossdep", n=2):
        with main.parblock():
            with main.parallel("slice", n=2):
                main.component("inner", "filter",
                               streams={"input": "raw", "output": "mid"})
        with main.parblock():
            main.component("v", "filter",
                           streams={"input": "mid", "output": "out"})
    main.component("snk", "sink", streams={"input": "out"})
    with pytest.raises(ExpansionError, match="nested data-parallel"):
        expand(b.build(), registry)


def test_slice_in_task_parallel_allowed(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("s1", "source", streams={"output": "a"})
    main.component("s2", "source", streams={"output": "b"})
    with main.parallel("task"):
        with main.parblock():
            with main.parallel("slice", n=2):
                main.component("f1", "filter", streams={"input": "a", "output": "x"})
        with main.parblock():
            with main.parallel("slice", n=2):
                main.component("f2", "filter", streams={"input": "b", "output": "y"})
    main.component("m", "merge", streams={"a": "x", "b": "y", "output": "z"})
    main.component("snk", "sink", streams={"input": "z"})
    prog = expand(b.build(), registry)
    assert "f1[0]" in prog.components
    assert "f2[1]" in prog.components


def test_manager_collects_members_and_options(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("mgr", queue="ui") as m:
        m.on("toggle2", "toggle", option="opt")
        main.component("f1", "filter", streams={"input": "a", "output": "b"})
        with main.option("opt", enabled=False, bypass=[("c", "d")]):
            main.component("f2", "filter", streams={"input": "b", "output": "c"})
    main.component("snk", "sink", streams={"input": "b"})
    prog = expand(b.build(), registry)
    assert set(prog.managers) == {"mgr"}
    mgr = prog.managers["mgr"]
    assert mgr.queue == "ui"
    assert mgr.options == ("opt",)
    assert set(mgr.members) == {"f1", "f2"}
    opt = prog.options["opt"]
    assert opt.manager == "mgr"
    assert opt.default_enabled is False
    assert opt.members == ("f2",)
    assert opt.bypasses == (("c", "d"),)
    # handler option name is qualified
    assert mgr.handlers[0].option == "opt"
    # component back-references
    assert prog.components["f2"].manager == "mgr"
    assert prog.components["f2"].options == ("opt",)
    assert prog.components["f1"].options == ()


def test_manager_in_called_procedure_qualified(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.call("sub", name="s1", streams={"out": "x"})
    main.component("snk", "sink", streams={"input": "x"})
    sub = b.procedure("sub", stream_formals=["out"])
    with sub.manager("m", queue="q") as mgr:
        mgr.on("e", "toggle", option="o")
        with sub.option("o"):
            sub.component("src", "source", streams={"output": "${out}"})
    prog = expand(b.build(), registry)
    assert set(prog.managers) == {"s1/m"}
    assert set(prog.options) == {"s1/o"}
    assert prog.managers["s1/m"].handlers[0].option == "s1/o"


def test_ir_structure_manager_option(registry):
    b = AppBuilder()
    main = b.procedure("main")
    with main.manager("m", queue="q"):
        with main.option("o"):
            main.component("src", "source", streams={"output": "s"})
    prog = expand(b.build(), registry)
    nodes = list(iter_ir(prog.root))
    assert any(isinstance(n, IRManager) and n.qname == "m" for n in nodes)
    assert any(isinstance(n, IROption) and n.qname == "o" for n in nodes)
    assert any(isinstance(n, IRLeaf) for n in nodes)


def test_manager_inside_slice_rejected(registry):
    b = AppBuilder()
    main = b.procedure("main")
    with main.parallel("slice", n=2):
        with main.manager("m", queue="q"):
            main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ExpansionError, match="manager.*may not appear"):
        expand(b.build(), registry)


def test_reconfigure_request_substitution(registry):
    b = AppBuilder()
    b.procedure("main").call("p", streams={"out": "s"}, params={"pos": "3,4"})
    p = b.procedure("p", stream_formals=["out"], param_formals={"pos": None})
    p.component("src", "source", streams={"output": "${out}"},
                reconfigure="pos=${pos}")
    prog = expand(b.build(), registry)
    assert prog.components["p/src"].reconfigure == "pos=3,4"


def test_queue_names_are_global_but_parametric(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.call("sub", name="a", streams={"out": "x"}, params={"q": "qa"})
    main.call("sub", name="b", streams={"out": "y"}, params={"q": "qb"})
    main.component("m", "merge", streams={"a": "x", "b": "y", "output": "z"})
    main.component("snk", "sink", streams={"input": "z"})
    sub = b.procedure("sub", stream_formals=["out"], param_formals={"q": None})
    with sub.manager("m", queue="${q}"):
        sub.component("src", "source", streams={"output": "${out}"})
    prog = expand(b.build(), registry)
    assert prog.managers["a/m"].queue == "qa"
    assert prog.managers["b/m"].queue == "qb"
    assert set(prog.queues) == {"qa", "qb"}


# -- replication: copies 1..n-1 are relabelled clones of copy 0 --------------

ROOT = Path(__file__).resolve().parents[2]


def _fuzz_spec(path: Path):
    data = json.loads(path.read_text())
    data.pop("_failure", None)
    data.pop("_replay", None)
    return build_spec(case_from_dict(data))


#: every shipped spec, the four app builders at the repo benchmark's
#: geometries, and every committed fuzz case
REPLICATED = {
    **{p.name: (lambda p=p: parse_file(p))
       for p in sorted((ROOT / "examples" / "specs").glob("*.xml"))},
    "audio": lambda: build_audio(channels=8, block=64, slices=2),
    "pip": lambda: build_pip(1, width=720, height=576, factor=4, slices=8),
    "jpip": lambda: build_jpip(1, width=320, height=256, pip_height=256,
                               factor=4, slices=4),
    "blur35": lambda: build_blur(3, width=360, height=288, slices=9,
                                 reconfigurable=True, period=6),
    **{p.name: (lambda p=p: _fuzz_spec(p))
       for p in sorted((ROOT / "tests" / "fuzz").glob("case-*.json"))},
}


def _regions(node):
    """Every data-parallel region under ``node``, as its tuple of copies."""
    for n in iter_ir(node):
        if isinstance(n, IRCrossdep):
            yield from n.parblocks
        elif isinstance(n, IRParallel):
            slices = {leaf.instance.slice for leaf in iter_ir(n.children[0])
                      if isinstance(leaf, IRLeaf)}
            if slices == {(0, len(n.children))}:
                yield n.children


def _instances(node) -> list:
    return [n.instance for n in iter_ir(node) if isinstance(n, IRLeaf)]


def _leaf_ids(node) -> tuple[str, ...]:
    return tuple(inst.instance_id for inst in _instances(node))


@pytest.mark.parametrize("build", REPLICATED.values(), ids=REPLICATED.keys())
def test_every_copy_is_copy_0_relabelled(build):
    prog = expand(build(), default_ports())
    regions = list(_regions(prog.root))
    # every sliced instance sits in one of the regions found
    assert sum(len(_instances(c)) for copies in regions for c in copies) == sum(
        inst.slice is not None for inst in prog.components.values())
    for copies in regions:
        n = len(copies)
        first = _instances(copies[0])
        assert first and all(inst.slice == (0, n) for inst in first)
        for i, copy in enumerate(copies[1:], start=1):
            want = [replace(inst, instance_id=f"{inst.definition_id}[{i}]",
                            slice=(i, n)) for inst in first]
            got = _instances(copy)
            assert got == want
            assert [g.line for g in got] == [w.line for w in want]
            assert [g.port_lines for g in got] == [w.port_lines for w in want]
    # components in expansion order: the IR's pre-order, copy by copy
    leaves = _instances(prog.root)
    assert list(prog.components) == [inst.instance_id for inst in leaves]
    assert all(prog.components[inst.instance_id] is inst for inst in leaves)
    # manager and option members in the same order, copy by copy
    for node in iter_ir(prog.root):
        if isinstance(node, IRManager):
            assert prog.managers[node.qname].members == _leaf_ids(node)
        elif isinstance(node, IROption):
            assert prog.options[node.qname].members == _leaf_ids(node)


def test_members_list_copies_in_order(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q") as m:
        m.on("t", "toggle", option="o")
        with main.option("o"):
            with main.parallel("slice", n=3):
                main.component("f", "filter",
                               streams={"input": "a", "output": "b"})
                main.component("g", "filter",
                               streams={"input": "b", "output": "c"})
        with main.parallel("crossdep", n=2):
            with main.parblock():
                main.component("h", "filter",
                               streams={"input": "c", "output": "d"})
            with main.parblock():
                main.component("v", "filter",
                               streams={"input": "d", "output": "e"})
    main.component("snk", "sink", streams={"input": "e"})
    prog = expand(b.build(), registry)
    assert prog.options["o"].members == (
        "f[0]", "g[0]", "f[1]", "g[1]", "f[2]", "g[2]")
    assert prog.managers["m"].members == prog.options["o"].members + (
        "h[0]", "h[1]", "v[0]", "v[1]")
    assert prog.components["g[2]"].options == ("o",)
    assert prog.components["v[1]"].manager == "m"


def test_a_clone_colliding_with_an_instance_is_a_duplicate(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    main.component("f[1]", "filter", streams={"input": "a", "output": "b"})
    with main.parallel("slice", n=2):
        main.component("f", "filter", streams={"input": "b", "output": "c"})
    main.component("snk", "sink", streams={"input": "c"})
    with pytest.raises(ExpansionError, match=r"duplicate component instance 'f\[1\]'"):
        expand(b.build(), registry)


def test_a_duplicate_inside_a_replicated_body_is_refused(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.parallel("slice", n=2):
        main.component("f", "filter", streams={"input": "a", "output": "b"})
        main.component("f", "filter", streams={"input": "b", "output": "c"})
    main.component("snk", "sink", streams={"input": "c"})
    with pytest.raises(ExpansionError, match=r"duplicate component instance 'f\[0\]'"):
        expand(b.build(), registry, validated=True)

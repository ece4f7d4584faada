"""Every real executor runs one copy.

``ThreadedRuntime`` at every width and ``ProcessRuntime`` build from a
Program in which every slice or crossdep region whose classes all set
``row_contract`` keeps only copy 0, relabelled ``slice=(0, 1)``
(:func:`repro.core.program.one_copy_regions`).  That Program must equal
the spec expanded with those regions at ``n=1``, other regions and the
simulator must keep every copy, and the frames must not change: the
one-worker digests are pinned here, and every-copy runs must equal the
one-worker run (``tests/test_conformance.py``'s check).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.engine import reachable_configurations
from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_ports, default_registry
from repro.core import AppBuilder, expand, parse_file
from repro.core.ast import (
    CallNode,
    ComponentNode,
    ManagerNode,
    OptionNode,
    ParallelNode,
    Spec,
    walk_body,
)
from repro.errors import ComponentError
from repro.fuzz.runner import Row, differential
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.engine import build_configuration
from repro.hinch.events import Event
from repro.hinch.manager import ManagerRuntime
from repro.spacecake import SimRuntime
from tests.hinch.helpers import (
    PORTS as TEST_PORTS, REGISTRY as TEST_REGISTRY, keep_copies,
)
from tests.test_conformance import assert_conforms

REG = default_registry()
SPECS = sorted((Path(__file__).resolve().parents[2] / "examples" / "specs")
               .glob("*.xml"))

#: the shipped classes whose copies differ only in the rows they cover
ROW_CONTRACT = {"idct_field", "downscale_field", "blend_field",
                "convert_plane", "blur_h_field", "blur_v_field",
                "band_filter", "map_plane", "stencil_plane"}


def test_row_contract_classes():
    declared = {name for name, cls in REG.items() if cls.row_contract}
    assert declared == ROW_CONTRACT


def n_one(spec: Spec) -> Spec:
    """``spec`` with every region of row-contract classes at ``n=1``."""

    def classes(body):
        for node in walk_body(body):
            if isinstance(node, ComponentNode):
                yield node.class_name
            elif isinstance(node, CallNode):
                yield from classes(spec.procedures[node.procedure].body)

    def cut(body):
        out = []
        for node in body:
            if isinstance(node, ParallelNode):
                node = replace(node, parblocks=tuple(
                    cut(pb) for pb in node.parblocks))
                region = tuple(n for pb in node.parblocks for n in pb)
                if node.shape != "task" and set(classes(region)) <= ROW_CONTRACT:
                    node = replace(node, n=1)
            elif isinstance(node, (ManagerNode, OptionNode)):
                node = replace(node, body=cut(node.body))
            out.append(node)
        return tuple(out)

    return Spec({name: replace(proc, body=cut(proc.body))
                 for name, proc in spec.procedures.items()}, spec.version)


def one_worker_program(program):
    return ThreadedRuntime(program, REG, nodes=1, max_iterations=1).program


def skeleton_app() -> Spec:
    """Source -> a map region -> a crossdep map/stencil region -> sink."""
    b = AppBuilder()
    main = b.procedure("main")
    geometry = {"width": 32, "height": 24}
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={**geometry, "seed": 3})
    with main.parallel("slice", n=3):
        main.component("inv", "map_plane",
                       streams={"input": "raw", "output": "inv"},
                       params={**geometry, "kernel": "invert"})
    with main.parallel("crossdep", n=3):
        with main.parblock():
            main.component("pre", "map_plane",
                           streams={"input": "inv", "output": "pre"},
                           params={**geometry, "kernel": "identity"})
        with main.parblock():
            main.component("edge", "stencil_plane",
                           streams={"input": "pre", "output": "out"},
                           params={**geometry, "kernel": "edge"})
    main.component("sink", "plane_sink", streams={"input": "out"},
                   params={**geometry, "collect": True})
    return b.build()


SMALL = {
    "audio": lambda: build_audio(channels=8, block=64, slices=2),
    "audio-reconfig": lambda: build_audio(channels=8, block=64, slices=2,
                                          reconfigurable=True),
    "pip": lambda: build_pip(1, width=64, height=48, factor=4, slices=2),
    "pip12": lambda: build_pip(2, width=64, height=48, factor=4, slices=2,
                               reconfigurable=True),
    "jpip": lambda: build_jpip(1, width=64, height=48, pip_height=48,
                               factor=4, slices=3),
    "jpip12": lambda: build_jpip(2, width=64, height=48, pip_height=48,
                                 factor=4, slices=3, reconfigurable=True),
    "blur35": lambda: build_blur(reconfigurable=True, width=48, height=36,
                                 slices=3),
    "blur-sp": lambda: build_blur(5, width=48, height=36, slices=3,
                                  sp_form=True),
    "skeletons": skeleton_app,
}
SPEC_CASES = [pytest.param(lambda p=p: parse_file(p), id=p.stem)
              for p in SPECS] + [pytest.param(b, id=k) for k, b in SMALL.items()]


@pytest.mark.parametrize("build", SPEC_CASES)
def test_one_worker_program_equals_an_n1_expansion(build):
    spec = build()
    program = one_worker_program(make_program(spec, name="app"))
    reference = make_program(n_one(spec), name="app")

    assert len(program.components) < len(
        make_program(spec, name="app").components)
    assert list(program.components) == list(reference.components)
    assert program.components == reference.components
    assert program.managers == reference.managers
    assert program.options == reference.options
    assert program.root == reference.root
    for states in reachable_configurations(reference):
        got, want = program.build_graph(states), reference.build_graph(states)
        assert got.graph.node_ids == want.graph.node_ids
        assert set(got.graph.edges()) == set(want.graph.edges())
        assert got.streams == want.streams


#: the four benchmark programs, small where the size does not change the
#: graph: (builder, graph nodes at one copy, graph nodes with every copy)
BENCHMARK_SHAPED = {
    "audio": (lambda: build_audio(channels=8, block=16, slices=2), 6, 8),
    "pip": (lambda: build_pip(1, width=64, height=48, factor=4, slices=8),
            10, 55),
    "jpip": (lambda: build_jpip(1, width=320, height=256, pip_height=256,
                                factor=4, slices=4), 16, 129),
    "blur35": (lambda: build_blur(3, width=48, height=36, slices=9,
                                  reconfigurable=True, period=6), 7, 23),
}


@pytest.mark.parametrize("name", BENCHMARK_SHAPED)
def test_every_real_executor_builds_the_one_worker_program(name):
    """Threads at two and processes build ``nodes=1``'s instances and,
    before the process chain compiler, its graph; the simulator keeps
    the spec's *n*."""
    build, one, every = BENCHMARK_SHAPED[name]
    program = make_program(build(), name=name)
    inline = ThreadedRuntime(program, REG, nodes=1, max_iterations=1)
    assert len(inline.pg.graph) == one
    for rt in (ThreadedRuntime(program, REG, nodes=2, max_iterations=1),
               ProcessRuntime(program, REG, workers=2, max_iterations=1)):
        assert rt.program.components == inline.program.components
        assert rt.program.root == inline.program.root
        assert rt.host.live.keys() == inline.host.live.keys()
        unchained = build_configuration(rt.program, REG, None).pg
        assert unchained.graph.node_ids == inline.pg.graph.node_ids
    sim = SimRuntime(program, REG, nodes=2, max_iterations=1)
    assert sim.program is program
    assert len(sim.pg.graph) == every


# -- regions that keep all their copies ------------------------------------

W, H = 32, 24


#: ``map_plane`` without the row contract: its copies stay copies
SLICED_REG = keep_copies(REG, "map_plane")
#: the real executors, and the simulator running every copy
EVERY_EXECUTOR = (Row("threaded", 2, 2), Row("process", 2, 2),
                  Row("sim", 2, 2))


def luma_app(*stages: tuple[str, str, dict, int]) -> AppBuilder:
    """Luma source -> each ``(name, class, params, n)`` stage -> sink."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "s0"},
                   params={"width": W, "height": H, "seed": 3})
    height = H
    for k, (name, cls, params, n) in enumerate(stages):
        streams = {"input": f"s{k}", "output": f"s{k + 1}"}
        with main.parallel("slice", n=n):
            main.component(name, cls, streams=streams, params=params)
        height = params["height"] // params.get("factor", 1)
    main.component("sink", "plane_sink", streams={"input": f"s{len(stages)}"},
                   params={"width": W * height // H, "height": height,
                           "collect": True})
    return b


def test_skeleton_regions_run_one_copy():
    """A map region and a crossdep region whose stencil reads a halo:
    one full-span copy each computes what every copy does."""
    program = make_program(skeleton_app(), name="app")
    assert [i for i in one_worker_program(program).components if "[" in i] \
        == ["inv[0]", "pre[0]", "edge[0]"]
    assert differential(program, REG, iterations=4,
                        rows=EVERY_EXECUTOR) is None


def test_sliced_region_keeps_its_copies_beside_a_cut_one():
    program = make_program(luma_app(
        ("scale", "downscale_field", {"width": W, "height": H, "factor": 2}, 3),
        ("inv", "map_plane", {"width": W // 2, "height": H // 2,
                              "kernel": "invert"}, 3),
    ).build(), name="app")
    for rt in (ThreadedRuntime(program, SLICED_REG, nodes=2,
                               max_iterations=1),
               ProcessRuntime(program, SLICED_REG, workers=2,
                              max_iterations=1)):
        assert [i for i in rt.program.components if "[" in i] == [
            "scale[0]", "inv[0]", "inv[1]", "inv[2]"]
        assert rt.program.components["scale[0]"].slice == (0, 1)
        assert rt.program.components["inv[2]"].slice == (2, 3)
    assert differential(program, SLICED_REG, iterations=3,
                        rows=EVERY_EXECUTOR) is None


def test_mixed_region_keeps_its_copies():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": W, "height": H, "seed": 3})
    with main.parallel("slice", n=2):
        main.component("scale", "downscale_field",
                       streams={"input": "raw", "output": "small"},
                       params={"width": W, "height": H, "factor": 2})
        main.component("inv", "map_plane",
                       streams={"input": "small", "output": "out"},
                       params={"width": W // 2, "height": H // 2,
                               "kernel": "invert"})
    main.component("sink", "plane_sink", streams={"input": "out"},
                   params={"width": W // 2, "height": H // 2,
                           "collect": True})
    program = make_program(b.build(), name="app")
    rt = ThreadedRuntime(program, SLICED_REG, nodes=1, max_iterations=1)
    assert rt.program is program
    assert {"scale[1]", "inv[1]"} <= set(rt.pg.graph.node_ids)
    assert differential(program, SLICED_REG, iterations=3,
                        rows=EVERY_EXECUTOR) is None


def test_class_without_a_row_contract_keeps_its_copies():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "array_source", streams={"output": "raw"},
                   params={"size": 12})
    with main.parallel("slice", n=3):
        main.component("scale", "slice_scaler",
                       streams={"input": "raw", "output": "out"})
    main.component("snk", "collector", streams={"input": "out"})
    program = expand(b.build(), TEST_PORTS)
    rt = ThreadedRuntime(program, TEST_REGISTRY, nodes=1, max_iterations=4)
    assert rt.program is program
    result = rt.run()
    assert {"scale[0]", "scale[1]", "scale[2]"} <= set(result.components)
    assert [v.tolist() for v in result.components["snk"].ordered()] == [
        [2.0 * k] * 12 for k in range(4)]


# -- the frames do not change ----------------------------------------------

#: sink digests recorded at nodes=1 with every copy run (the build before
#: the rewrite existed): (builder, iterations, planes, sha256)
PINNED = {
    "pip1": (lambda: build_pip(1, collect=True), 12, 36,
             "4afd3a820a713c7237d5f55f4cc17c4695dc99f150ee1a556940bbeb9bd725c2"),
    "blur3": (lambda: build_blur(3, collect=True), 12, 12,
              "3e76092ee2051abb96fcb5e0ec0ed8f15c3ae1fea8700742d30b38a674e3cfd6"),
    "jpip1-small": (
        lambda: build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                           slices=3, collect=True), 12, 36,
        "9b15aa997f2288ecd2a9299bc756d41322f8b33304089df89884520d38241049"),
    "audio": (lambda: build_audio(collect=True), 12, 12,
              "a65d435a4344caf13cb89ba7db2e456227e0f25add122a7122e481f4c6e76e92"),
    "pip12": (lambda: build_pip(2, reconfigurable=True, period=4,
                                collect=True), 12, 36,
              "7b1968e5836dbb98eada7b02a9846c855e3bd109b05e90a48358b060030e8be0"),
    "blur35": (lambda: build_blur(reconfigurable=True, collect=True), 12, 12,
               "b24891490bf2fb726b51b7526f8a9e406a489afb7579efa70dabb91a4b8f4d39"),
    "jpip12-small": (
        lambda: build_jpip(2, width=64, height=48, pip_height=48, factor=4,
                           slices=3, reconfigurable=True, collect=True), 12, 36,
        "497521483c19cd418c2d9db146b6325514d7da38c3607535c15d607189a264b8"),
    "audio-reconfig": (
        lambda: build_audio(reconfigurable=True, period=4, collect=True), 12, 12,
        "6fef5e259e9a18f28ab50200fd64e7d282becdee27a209eb6ff433091f2e3c0f"),
}
STATIC = ("pip1", "blur3", "jpip1-small", "audio")


def sink_digest(result) -> tuple[int, str]:
    sink = result.components["sink"]
    if hasattr(sink, "ordered_frames"):
        out = [p for f in sink.ordered_frames() for p in (f.y, f.u, f.v)]
    elif hasattr(sink, "ordered_planes"):
        out = sink.ordered_planes()
    else:
        out = sink.ordered_records()
    h = hashlib.sha256()
    for plane in out:
        h.update(str((plane.shape, plane.dtype.str)).encode())
        h.update(plane.tobytes())
    return len(out), h.hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_one_worker_output_is_pinned(name):
    build, iters, count, digest = PINNED[name]
    program = make_program(build(), name=name)
    rt = ThreadedRuntime(program, REG, nodes=1, max_iterations=iters)
    result = rt.run()
    assert len(rt.program.components) < len(program.components)
    assert sink_digest(result) == (count, digest)
    if name not in STATIC:
        assert result.reconfig_count >= 1


@pytest.mark.parametrize("name", STATIC)
def test_static_output_equals_every_copy_run(name):
    build, iters, _, _ = PINNED[name]
    assert_conforms(build(), iters, ("threaded", 2, 5), ("sim", 2, 5),
                    name=name)


# -- what a run reports ----------------------------------------------------


def test_run_result_shows_the_copy_count():
    program = make_program(
        build_blur(3, width=48, height=36, slices=3, collect=True), name="b")
    for nodes in (1, 2):
        one = ThreadedRuntime(program, REG, nodes=nodes,
                              max_iterations=2).run()
        assert one.components["h3[0]"].slice == (0, 1)
        assert one.components["v3[0]"].slice == (0, 1)
        assert "h3[1]" not in one.components
        # one write per iteration: a single copy fills each plane
        assert one.stream_stats["mid3"][0] == 2
    every = SimRuntime(program, REG, nodes=2, max_iterations=2,
                       execute=True).run()
    assert [every.components[f"h3[{i}]"].slice for i in range(3)] == [
        (0, 3), (1, 3), (2, 3)]
    # a region run as n copies counts one write per copy
    copies = keep_copies(REG, "blur_h_field", "blur_v_field")
    for rt in (ThreadedRuntime(program, copies, nodes=2, max_iterations=2),
               ProcessRuntime(program, copies, workers=2, max_iterations=2)):
        result = rt.run()
        assert result.components["h3[2]"].slice == (2, 3)
        assert result.stream_stats["mid3"][0] == 2 * 3


# -- slice requests --------------------------------------------------------


def test_a_broadcast_may_not_set_slice():
    """The Python manager API's ``${payload}`` requests are refused at
    send: a broadcast ``slice=`` would give every copy one band."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": W, "height": H})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("move", "reconfigure", request="pos=1,1")
        with main.parallel("slice", n=2):
            main.component("scale", "downscale_field",
                           streams={"input": "raw", "output": "out"},
                           params={"width": W, "height": H, "factor": 2})
    main.component("sink", "plane_sink", streams={"input": "out"},
                   params={"width": W // 2, "height": H // 2})
    program = expand(b.build(), default_ports())
    for nodes in (1, 2):
        rt = ThreadedRuntime(program, REG, nodes=nodes, max_iterations=1)
        with pytest.raises(ComponentError, match="manager 'm'.*'slice'"):
            rt.send_reconfigure_request("m", "slice=0/2")
        info = replace(program.managers["m"], handlers=(
            replace(program.managers["m"].handlers[0],
                    request="slice=${payload}"),))
        manager = ManagerRuntime(info, rt.broker, rt)
        rt.broker.post("ui", Event("move", payload="1/2"))
        with pytest.raises(ComponentError, match="may not set 'slice'"):
            manager.invoke(0, "enter")
        assert all(c.slice == (0, 1)
                   for c in rt.host.live.values() if c.slice is not None)

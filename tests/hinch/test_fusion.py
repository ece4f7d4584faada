"""Fusion: pair kernels in every build, the chain compiler on processes.

Every threaded and process build contracts each graph-linear pair whose
reader class offers a combined kernel; every process build also runs the
chain compiler (:mod:`repro.hinch.fusion`), threads never do.  The
simulator keeps the paper's unfused graph.  The contract tested here:
each executor builds the graph it should; its output is bit-identical
to the simulator's and the one-worker run's on every executor and width
and across live reconfigurations (``tests/test_conformance.py``'s
check, on the rows named here); the stream inside a pair is never
written; and a program without a pair kernel gets its graph back
untouched.
"""

from __future__ import annotations


import numpy as np
import pytest

import repro.hinch.engine as engine
from repro.analysis.diagnostics import DiagnosticBag
from repro.analysis.formats import check_formats, runtime_expectations
from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_ports, default_registry
from repro.core import expand, parse_string
from repro.core.program import one_copy_regions
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.fusion import (
    FusedChain,
    FusedPair,
    fuse_chains,
    fuse_pairs,
    peephole_classes,
)
from repro.hinch.grouping import find_linear_chains
from repro.spacecake import SimRuntime

from tests.test_conformance import assert_conforms

REG = default_registry()
PAIRS = {"bg_read+bg_decode", "pip0_read+pip0_decode"}


def _jpip_program(**overrides):
    kwargs = dict(width=64, height=48, pip_height=48, factor=4, slices=3,
                  frames=2, collect=True)
    kwargs.update(overrides)
    return make_program(build_jpip(1, **kwargs), name="jpip1")


def _pair_nodes(pg):
    return {n.node_id: n.payload for n in pg.graph
            if isinstance(n.payload, FusedPair)}


def _fused_graph(program):
    pg = program.build_graph()
    solution = check_formats(DiagnosticBag(), program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    return len(pg.graph), fuse_chains(pg, program, REG, expectations)


# -- pair fusion -------------------------------------------------------------


def test_jpip_contracts_each_source_decode_pair():
    program = _jpip_program()
    config = engine.build_configuration(program, REG, None)
    pairs = _pair_nodes(config.pg)
    assert set(pairs) == PAIRS
    assert all([m.class_name for m in pair] == ["mjpeg_source", "jpeg_decode"]
               for pair in pairs.values())
    # two nodes become one per pair; nothing else moves
    assert len(program.build_graph().graph) - len(config.pg.graph) == 2


WITHOUT_KERNELS = {
    "audio": lambda: build_audio(channels=4, block=32, reconfigurable=True,
                                 period=2, collect=True),
    "pip": lambda: build_pip(2, width=64, height=48, factor=4, slices=2,
                             frames=2, reconfigurable=True, period=2,
                             collect=True),
    "blur35": lambda: build_blur(reconfigurable=True, period=2, width=48,
                                 height=36, slices=3, frames=2,
                                 collect=True),
}


@pytest.mark.parametrize("name", sorted(WITHOUT_KERNELS))
def test_builds_without_a_pair_kernel_return_their_graph_unchanged(
        name, monkeypatch):
    program = make_program(WITHOUT_KERNELS[name](), name=name)
    assert peephole_classes(program, REG) == frozenset()
    # even asked about every class, the pass hands the graph back as is
    pg = program.build_graph()
    every = frozenset(i.class_name for i in program.components.values())
    assert fuse_pairs(pg, REG, every) is pg

    def never(*args):
        raise AssertionError("pair pass ran on a program without kernels")

    # no build runs the pass, splices inside run() included
    monkeypatch.setattr(engine, "fuse_pairs", never)
    rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                         max_iterations=6)
    assert rt.run().reconfig_count >= 1


def test_a_kernel_refused_at_build_keeps_the_pair_apart():
    """A class that overrides ``compile_fused_pair`` but returns None for
    this writer leaves the graph as it was."""
    program = _jpip_program()
    registry = _plain_decode_registry()
    config = engine.build_configuration(program, registry, None)
    assert not _pair_nodes(config.pg)
    assert len(config.pg.graph) == len(program.build_graph().graph)


def _plain_decode_registry():
    registry = dict(REG)

    class PlainDecode(REG["jpeg_decode"]):
        @classmethod
        def compile_fused_pair(cls, upstream_cls, upstream, instance):
            return None

    registry["jpeg_decode"] = PlainDecode
    return registry


# -- the chain compiler ------------------------------------------------------


def _one_copy(program):
    """``program`` as every real executor builds it."""
    return one_copy_regions(program, lambda name: REG[name].row_contract)


def test_one_copy_jpip_fuses_one_chain_per_source():
    """Each region of the small JPiP build runs as one copy, so every
    stream between its stages is 1:1 over whole planes.  A chain holds at
    most one root of the graph, so the two pictures stay two jobs: the
    inset's source through its downscales, and the background's source
    through the blends and the sink."""
    before, (pg, report) = _fused_graph(_one_copy(_jpip_program()))
    assert (before, len(pg.graph)) == (18, 2)
    assert not report.dropped and not report.refused
    inset, background = report.chains
    assert [m.instance_id for m in inset][:2] == ["pip0_read", "pip0_decode"]
    assert [m.instance_id for m in background][:2] == ["bg_read",
                                                       "bg_decode"]
    for chain in report.chains:
        assert [m.class_name for m in chain].count("idct_field") == 3
    assert {"pip0_coeffs_y", "pip0_plane_y"} <= set(inset.internal)
    assert {"bg_coeffs_y", "out_y"} <= set(background.internal)
    # the inset reaches the blends through the store
    assert "small0_y" not in report.internal_streams


def test_independent_sources_stay_in_separate_jobs():
    """PiP's two sources are both roots of its graph: the process build
    fuses each with what only it feeds and hands the inset to the blends
    through a stream, so a worker can run one source's job while another
    finishes the previous frame."""
    program = make_program(build_pip(1, width=64, height=48, factor=4,
                                     slices=2, frames=2), name="pip1")
    config = engine.build_configuration(_one_copy(program), REG, None,
                                        chains=True)
    chains = {n.node_id: n.payload for n in config.pg.graph}
    assert sorted(chains) == [
        "bg+sb0_v/blend[0]+sb0_u/blend[0]+sb0_y/blend[0]+sink",
        "pip0+sb0_v/scale[0]+sb0_u/scale[0]+sb0_y/scale[0]"]
    assert all(isinstance(c, FusedChain) for c in chains.values())
    assert "sb0_y/small" in config.pg.streams


def test_chains_compile_around_the_pairs_of_a_build():
    """With the chain compiler the build's pairs stay pair nodes and it
    fuses the one-copy stages behind them."""
    config = engine.build_configuration(_one_copy(_jpip_program()), REG,
                                        None, chains=True)
    assert set(_pair_nodes(config.pg)) == PAIRS
    chains = [n.payload for n in config.pg.graph
              if isinstance(n.payload, FusedChain)]
    assert len(chains) == 1
    assert len(config.pg.graph) == 3


def test_internal_streams_never_reach_the_store():
    _, (pg, report) = _fused_graph(_one_copy(_jpip_program()))
    assert "pip0_bits" in report.internal_streams
    assert "pip0_plane_y" in report.internal_streams
    for chain in report.chains:
        assert isinstance(chain, FusedChain)
        for name in chain.internal:
            # internal streams leave the rewritten stream tables entirely
            assert name in report.internal_streams


def test_fused_nodes_match_the_report_chains():
    _, (pg, report) = _fused_graph(_one_copy(_jpip_program()))
    chain_ids = {c.node_id for c in report.chains}
    fused_nodes = {
        n.node_id for n in pg.graph
        if isinstance(n.payload, FusedChain)
    }
    assert fused_nodes == chain_ids


def test_refusals_are_reported_per_stream():
    """The spec's three copies per region: only the unsliced
    source+decode pairs fuse, and every stream with a copy on either
    side is refused as such."""
    _, (pg, report) = _fused_graph(_jpip_program())
    families = {"+".join(m.class_name for m in c) for c in report.chains}
    assert families == {"mjpeg_source+jpeg_decode"}
    sliced = {name for name, table in pg.streams.items()
              if any(e.instance_id.endswith("]")
                     for e in (*table.writers, *table.readers))}
    assert "bg_coeffs_y" in sliced
    assert {name for name, reason in report.refused.items()
            if reason == "sliced copies"} == sliced


# -- grouping refusals (shared chain-eligibility rules) ----------------------


def test_chains_never_cross_control_nodes():
    program = make_program(
        build_blur(reconfigurable=True, period=3, width=48, height=36,
                   slices=3, frames=2), name="blur35")
    pg = program.build_graph()
    control = {n.node_id for n in pg.graph if n.kind != "task"}
    assert control  # the manager node
    for chain in find_linear_chains(pg.graph, pg.crossdep_nodes):
        assert not set(chain) & control


def test_chains_never_include_crossdep_members():
    program = make_program(
        build_blur(5, width=48, height=36, slices=3, frames=2), name="blur5")
    pg = program.build_graph()
    assert pg.crossdep_nodes  # the vertical blur reads a halo
    for chain in find_linear_chains(pg.graph, pg.crossdep_nodes):
        assert not set(chain) & pg.crossdep_nodes


def test_chains_never_cross_option_boundaries():
    program = make_program(
        build_jpip(2, width=64, height=48, pip_height=48, factor=4,
                   slices=3, frames=2, reconfigurable=True, period=2),
        name="jpip12")
    pg = program.build_graph()
    by_id = {n.node_id: n for n in pg.graph}
    for chain in find_linear_chains(pg.graph, pg.crossdep_nodes):
        options = {by_id[m].payload.options for m in chain}
        assert len(options) == 1


# -- what each executor builds ---------------------------------------------


def _spec(app):
    if app == "pip":
        return build_pip(1, width=64, height=48, factor=4, slices=2,
                         frames=2, collect=True)
    if app == "blur":
        return build_blur(5, width=48, height=36, slices=3, frames=2,
                          collect=True)
    if app == "jpip12":
        return build_jpip(2, width=64, height=48, pip_height=48, factor=4,
                          slices=3, frames=2, reconfigurable=True, period=2,
                          collect=True)
    return build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, collect=True)


def _frames(result, app):
    sink = result.components["sink"]
    if app.startswith("blur"):
        return [(p,) for p in sink.ordered_planes()]
    return [(f.y, f.u, f.v) for f in sink.ordered_frames()]


def _assert_same(a, b):
    assert len(a) == len(b) and len(a) > 0
    for x, y in zip(a, b):
        assert all(np.array_equal(p, q) for p, q in zip(x, y))


# -- bit-identity: every executor == the unfused reference ------------------


def _matches_reference(spec, name, depth, iterations, *rows):
    """``rows`` (``(backend, width, depth)``) reproduce the simulator
    executing the unfused graph, and the one-worker run."""
    assert_conforms(spec, iterations, ("sim", 2, depth), *rows, name=name)


#: the build on every executor that fuses pairs; a process lease holds
#: up to four jobs
DEFAULT_BUILDS = {
    "threaded-1": ("threaded", 1),
    "threaded-2": ("threaded", 2),
    "process-1-batch4": ("process", 1),
    "process-2-batch4": ("process", 2),
}


@pytest.mark.parametrize("app", ["jpip", "jpip12", "blur"])
@pytest.mark.parametrize("executor", sorted(DEFAULT_BUILDS))
def test_default_build_matches_the_unfused_reference(executor, app):
    # timer-toggled: one iteration in flight keeps the splice iteration
    # the same on every executor
    depth = 1 if app == "jpip12" else 2
    _matches_reference(_spec(app), app, depth, 6,
                       (*DEFAULT_BUILDS[executor], depth))


@pytest.mark.parametrize("app", ["pip", "blur", "jpip"])
@pytest.mark.parametrize("nodes", [1, 2])
def test_threaded_fused_identical(app, nodes):
    """Threads fuse pairs only: no build of theirs holds a chain node
    (``test_each_executor_builds_its_own_graph``)."""
    _matches_reference(_spec(app), app, 2, 4, ("threaded", nodes, 2))


@pytest.mark.parametrize("app", ["pip", "blur", "jpip"])
@pytest.mark.parametrize("workers", [1, 4])
def test_process_fused_identical(app, workers):
    """Every process build runs the chain compiler, whatever its width."""
    _matches_reference(_spec(app), app, 2, 4, ("process", workers, 2))


def test_each_executor_builds_its_own_graph():
    """Threads and processes contract the source+decode pairs; the
    simulator keeps the paper's unfused graph.  Only process builds hold
    chain nodes, at any width: where one-copy regions meet 1:1 outside
    crossdep regions and managers.  Their output is
    ``tests/test_conformance.py``'s."""
    for app in ("pip", "blur", "jpip", "jpip12"):
        program = make_program(_spec(app), name=app)
        threads = [ThreadedRuntime(program, REG, nodes=n, max_iterations=1)
                   for n in (1, 2)]
        processes = [ProcessRuntime(program, REG, workers=w, max_iterations=1)
                     for w in (1, 4)]
        sim = SimRuntime(program, REG, nodes=2, max_iterations=1,
                         execute=True)
        assert not _pair_nodes(sim.pg)
        for rt in threads + processes:
            chains = [n for n in rt.pg.graph
                      if isinstance(n.payload, FusedChain)]
            assert bool(chains) == (rt in processes
                                    and app in ("pip", "jpip"))
            if app.startswith("jpip"):
                assert set(_pair_nodes(rt.pg)) == PAIRS


def test_the_bitstream_inside_a_pair_is_never_written():
    program = _jpip_program()
    for rt in (ThreadedRuntime(program, REG, nodes=1, max_iterations=3),
               ProcessRuntime(program, REG, workers=2, max_iterations=3)):
        stats = rt.run().stream_stats
        assert stats["bg_coeffs_y"][0] == 3
        for name in ("bg_bits", "pip0_bits"):
            assert stats.get(name, (0, 0)) == (0, 0)


def test_fused_source_decode_skips_the_bitstream():
    """The source+decode pair kernel proves the Huffman round-trip away:
    the encoded-frame cache stays untouched while output is identical."""
    program = make_program(_spec("jpip"), name="jpip1")
    ref = SimRuntime(program, REG, nodes=1, pipeline_depth=1,
                     max_iterations=3, execute=True).run()
    fused = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                            max_iterations=3).run()
    _assert_same(_frames(ref, "jpip"), _frames(fused, "jpip"))
    ref_sources = [c for c in ref.components.values()
                   if type(c).__name__ == "MjpegSource"]
    fused_sources = [c for c in fused.components.values()
                     if type(c).__name__ == "MjpegSource"]
    assert ref_sources and all(s._cache for s in ref_sources)
    assert fused_sources and all(not s._cache for s in fused_sources)
    assert all(s._zz_cache for s in fused_sources)


# -- live reconfiguration ----------------------------------------------------


#: the fused process builds, one iteration in flight
FUSED_EXECUTORS = (("process", 1, 1), ("process", 2, 1))


def test_reconfigurable_blur_fused_matches_unfused():
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    _matches_reference(spec, "blur35", 1, 6, *FUSED_EXECUTORS)


def test_reconfigurable_jpip_fused_matches_unfused():
    _matches_reference(_spec("jpip12"), "jpip12", 1, 6, *FUSED_EXECUTORS)


# -- converter auto-insertion (X504 -> X506) ---------------------------------


_CONVERT_SPEC = """<?xml version="1.0" ?>
<xspcl version="1.0">
  <procedure name="main">
    <body>
      <component name="src" class="luma_source">
        <stream port="output" ref="raw"/>
        <param name="width" value="16"/><param name="height" value="16"/>
        <param name="frames" value="2"/>
      </component>
      <component name="sink" class="plane_sink">
        <stream port="input" ref="raw"
                format="kind=plane shape=height,width dtype=float32"/>
        <param name="width" value="16"/><param name="height" value="16"/>
        <param name="collect" value="true"/>
      </component>
    </body>
  </procedure>
</xspcl>
"""


def _convert_program():
    spec = parse_string(_CONVERT_SPEC)
    return expand(spec, default_ports(), name="convert")


@pytest.mark.parametrize(
    "runtime_cls,kwargs",
    [
        (ThreadedRuntime, {"nodes": 1}),
        (ProcessRuntime, {"workers": 1}),
        (SimRuntime, {"nodes": 1, "execute": True}),
        (SimRuntime, {"nodes": 1, "execute": False}),
    ],
    ids=["ThreadedRuntime", "ProcessRuntime", "SimRuntime-execute",
         "SimRuntime-cost-only"],
)
def test_converter_auto_inserted_at_build(runtime_cls, kwargs):
    program = _convert_program()
    rt = runtime_cls(program, REG, pipeline_depth=2, max_iterations=3,
                     **kwargs)
    # every backend installs the same rewritten graph: the simulator must
    # cost (and, executing, run) the bridge the real backends run; the
    # process backend's chain compiler then fuses all three into one job
    expected = (["src+raw.as_float32.convert+sink"]
                if runtime_cls is ProcessRuntime
                else ["raw.as_float32.convert", "sink", "src"])
    assert sorted(n.node_id for n in rt.pg.graph) == expected
    result = rt.run()
    if runtime_cls is SimRuntime:
        assert result.jobs_executed == 9
    if kwargs.get("execute", True):
        planes = result.components["sink"].ordered_planes()
        assert len(planes) == 3
        assert all(p.dtype == np.float32 for p in planes)


def test_fusion_absorbs_the_auto_inserted_converter():
    program = _convert_program()
    ref = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=2,
                          max_iterations=3).run()
    fused_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=2,
                              max_iterations=3)
    fused = fused_rt.run()
    (chain,) = [n.payload for n in fused_rt.pg.graph
                if isinstance(n.payload, FusedChain)]
    assert "convert_plane" in {m.class_name for m in chain}
    assert "raw.as_float32" in chain.internal
    _assert_same([(p,) for p in ref.components["sink"].ordered_planes()],
                 [(p,) for p in fused.components["sink"].ordered_planes()])


def test_fused_process_run_shrinks_meta_bytes():
    """A chain-internal stream never crosses the pipe: the dispatcher's
    stream table never sees it, so it ships no descriptor for it."""
    program = _jpip_program()
    rt = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                        max_iterations=4)
    internal = {name for n in rt.pg.graph
                if isinstance(n.payload, FusedChain)
                for name in n.payload.internal}
    assert {"bg_plane_y", "pip0_plane_y"} <= internal
    result = rt.run()
    assert result.pool_stats["meta_pickled_bytes"] > 0
    assert result.stream_stats["bg_coeffs_y"][0] == 4
    assert not internal & set(result.stream_stats)


def test_blur_n4_never_fuses_with_or_without_headroom():
    """Pin: Blur's stencil stages live in crossdep regions (halo
    exchange), so the compiler welds nothing there, on the spec's copies
    or on one.  A head-room, which ``benchmarks/e2e/layers.py`` still
    passes, is accepted and changes nothing."""
    program = make_program(
        build_blur(5, width=48, height=36, slices=4, frames=2,
                   collect=True),
        name="blur5",
    )
    for build in (program, _one_copy(program)):
        pg = build.build_graph()
        solution = check_formats(DiagnosticBag(), build, pg)
        expectations = runtime_expectations(build, pg, solution=solution)
        _, report = fuse_chains(pg, build, REG, expectations)
        _, shim = fuse_chains(pg, build, REG, expectations, "numpy", 8)
        assert report.chains == shim.chains == ()

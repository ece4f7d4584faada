"""Chain fusion (--fuse): structure, bit-identity, faults, interning.

The fusion compiler (:mod:`repro.hinch.fusion`) rewrites provable linear
chains into single-dispatch fused kernels whose intermediate planes stay
worker-local.  The contract tested here is absolute: fused output is
bit-identical to unfused output on every application, every backend,
every batch size, and across live reconfigurations — and a worker killed
mid-fused-job requeues the whole fused job exactly once.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticBag
from repro.analysis.formats import check_formats, runtime_expectations
from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_ports, default_registry
from repro.core import expand, parse_string
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.fusion import (
    FusedChain,
    fuse_chains,
    numba_available,
    resolve_backend,
)
from repro.hinch.grouping import find_linear_chains
from repro.hinch.shm import NameInterner
from repro.spacecake import SimRuntime

REG = default_registry()


def _jpip_program(**overrides):
    kwargs = dict(width=64, height=48, pip_height=48, factor=4, slices=3,
                  frames=2, collect=True)
    kwargs.update(overrides)
    return make_program(build_jpip(1, **kwargs), name="jpip1")


def _fused_graph(program):
    pg = program.build_graph()
    solution = check_formats(DiagnosticBag(), program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    return len(pg.graph), fuse_chains(pg, program, REG, expectations)


# -- compiler structure ------------------------------------------------------


def test_jpip_fuses_twenty_chains():
    """The small JPiP build collapses 45 nodes to 21: one source+decode
    pair per stream plus sliced idct+downscale / idct+blend pairs."""
    before, (pg, report) = _fused_graph(_jpip_program())
    assert (before, len(pg.graph)) == (45, 21)
    assert len(report.chains) == 20
    assert not report.dropped
    families = {"+".join(m.class_name for m in c) for c in report.chains}
    assert families == {
        "mjpeg_source+jpeg_decode",
        "idct_field+downscale_field",
        "idct_field+blend_field",
    }


def test_internal_streams_never_reach_the_store():
    _, (pg, report) = _fused_graph(_jpip_program())
    assert "bg_bits" in report.internal_streams
    assert "pip0_plane_y" in report.internal_streams
    for chain in report.chains:
        assert isinstance(chain, FusedChain)
        for name in chain.internal:
            # internal streams leave the rewritten stream tables entirely
            assert name in report.internal_streams


def test_fused_nodes_match_the_report_chains():
    _, (pg, report) = _fused_graph(_jpip_program())
    chain_ids = {c.node_id for c in report.chains}
    fused_nodes = {
        n.node_id for n in pg.graph
        if isinstance(n.payload, FusedChain)
    }
    assert fused_nodes == chain_ids


def test_refusals_are_reported_per_stream():
    _, (pg, report) = _fused_graph(_jpip_program())
    # sliced IDCT reads the unsliced decoder output: not provable 1:1
    assert "mixed sliced/unsliced endpoints" in report.refused["bg_coeffs_y"]


def test_backend_resolution_and_fallback():
    assert resolve_backend("numpy") == "numpy"
    with pytest.raises(ValueError, match="unknown fuse backend"):
        resolve_backend("cuda")
    if not numba_available():
        assert resolve_backend("numba") == "numpy"


def test_requested_numba_recorded_even_when_absent():
    program = _jpip_program()
    pg = program.build_graph()
    solution = check_formats(DiagnosticBag(), program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    _, report = fuse_chains(pg, program, REG, expectations, "numba")
    assert report.requested_backend == "numba"
    assert report.backend in ("numpy", "numba")
    if not numba_available():
        assert report.backend == "numpy"


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


# -- bit-identity: fused == unfused everywhere -------------------------------


def _spec(app):
    if app == "pip":
        return build_pip(1, width=64, height=48, factor=4, slices=2,
                         frames=2, collect=True)
    if app == "blur":
        return build_blur(5, width=48, height=36, slices=3, frames=2,
                          collect=True)
    return build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, collect=True)


def _collected(result, app):
    sink = result.components["sink"]
    if app == "blur":
        return sink.ordered_planes()
    return sink.ordered_frames()


def _assert_same(a, b):
    assert len(a) == len(b) and len(a) > 0
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("app", ["pip", "blur", "jpip"])
@pytest.mark.parametrize("fuse_backend", ["numpy", "numba"])
def test_threaded_fused_identical(app, fuse_backend):
    program = make_program(_spec(app), name=app)
    ref = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                          max_iterations=4).run()
    fused_rt = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                               max_iterations=4, fuse=True,
                               fuse_backend=fuse_backend)
    fused = fused_rt.run()
    assert fused_rt.fusion_report is not None
    _assert_same(_collected(ref, app), _collected(fused, app))


@pytest.mark.parametrize("app", ["pip", "blur", "jpip"])
@pytest.mark.parametrize("batch", [1, 4])
def test_process_fused_identical(app, batch):
    program = make_program(_spec(app), name=app)
    ref = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                          max_iterations=4).run()
    fused = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                           max_iterations=4, batch=batch, fuse=True).run()
    _assert_same(_collected(ref, app), _collected(fused, app))


def test_process_fused_numba_request_falls_back_identically():
    program = make_program(_spec("jpip"), name="jpip1")
    ref = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                          max_iterations=4).run()
    rt = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                        max_iterations=4, fuse=True, fuse_backend="numba")
    fused = rt.run()
    assert rt.fusion_report is not None
    if not numba_available():
        assert rt.fusion_report.backend == "numpy"
    _assert_same(_collected(ref, "jpip"), _collected(fused, "jpip"))


def test_fused_source_decode_skips_the_bitstream():
    """The source+decode pair kernel proves the Huffman round-trip away:
    the encoded-frame cache stays untouched while output is identical."""
    program = make_program(_spec("jpip"), name="jpip1")
    ref = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                          max_iterations=3).run()
    fused = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                            max_iterations=3, fuse=True).run()
    _assert_same(_collected(ref, "jpip"), _collected(fused, "jpip"))
    ref_sources = [c for c in ref.components.values()
                   if type(c).__name__ == "MjpegSource"]
    fused_sources = [c for c in fused.components.values()
                     if type(c).__name__ == "MjpegSource"]
    assert ref_sources and all(s._cache for s in ref_sources)
    assert fused_sources and all(not s._cache for s in fused_sources)
    assert all(s._zz_cache for s in fused_sources)


# -- live reconfiguration ----------------------------------------------------


def test_reconfigurable_blur_fused_matches_unfused():
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    program = make_program(spec, name="blur35")
    ref_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=9)
    ref = ref_rt.run()
    fused_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=1,
                              max_iterations=9, fuse=True)
    fused = fused_rt.run()
    assert ref_rt.reconfig_log
    assert fused_rt.reconfig_log == ref_rt.reconfig_log
    _assert_same(ref.components["sink"].ordered_planes(),
                 fused.components["sink"].ordered_planes())


def test_reconfigurable_jpip_fused_matches_unfused():
    spec = build_jpip(2, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, reconfigurable=True, period=2,
                      collect=True)
    program = make_program(spec, name="jpip12")
    ref_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=6)
    ref = ref_rt.run()
    fused_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=1,
                              max_iterations=6, fuse=True)
    fused = fused_rt.run()
    assert ref_rt.reconfig_log
    assert fused_rt.reconfig_log == ref_rt.reconfig_log
    _assert_same(ref.components["sink"].ordered_frames(),
                 fused.components["sink"].ordered_frames())


# -- fault tolerance ---------------------------------------------------------


def test_kill_mid_fused_job_requeues_whole_job_once():
    program = _jpip_program()
    ref = ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                          max_iterations=4).run()
    rt = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                        max_iterations=4, fuse=True, faults="kill:7")
    result = rt.run()
    kinds: dict[str, int] = {}
    for event in result.fault_events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    assert kinds.get("worker_failure") == 1
    assert kinds.get("retry") == 1  # the whole fused job, exactly once
    assert rt.scheduler.retries == 1
    _assert_same(_collected(ref, "jpip"), _collected(result, "jpip"))


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
        <param name="collect" value="1"/>
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
    # cost (and, executing, run) the bridge the real backends run
    assert sorted(n.node_id for n in rt.pg.graph) == [
        "raw.as_float32.convert", "sink", "src"]
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
    fused_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=2,
                               max_iterations=3, fuse=True)
    fused = fused_rt.run()
    report = fused_rt.fusion_report
    assert report is not None and report.chains
    members = {m.class_name for c in report.chains for m in c}
    assert "convert_plane" in members
    assert "raw.as_float32" in report.internal_streams
    _assert_same(ref.components["sink"].ordered_planes(),
                 fused.components["sink"].ordered_planes())


# -- lease-pickle string interning -------------------------------------------


def test_interner_round_trips_arbitrary_messages():
    interner = NameInterner(["alpha", "beta", "gamma"])
    msg = ("lease", [("alpha", 3, ("beta", "delta")), {"gamma": None}], 7)
    assert interner.loads(interner.dumps(msg)) == msg


def test_interner_code_zero_and_unknown_strings():
    interner = NameInterner(["aa", "bb"])
    # "aa" interns to code 0 — falsy, must still intern
    data = interner.dumps(["aa", "zz", "bb"])
    assert interner.loads(data) == ["aa", "zz", "bb"]
    assert b"aa" not in data
    assert b"zz" in data


def test_interned_lease_smaller_than_plain_pickle():
    names = [f"pip0_idct_y/idct[{i}]+scale0_y[{i}]" for i in range(8)]
    interner = NameInterner(names)
    lease = ("lease", [(n, i, 2) for i, n in enumerate(names)], 3)
    assert len(interner.dumps(lease)) < len(pickle.dumps(lease, protocol=5))
    assert interner.loads(interner.dumps(lease)) == lease


def test_interner_table_derivation_covers_fused_payloads():
    program = _jpip_program()
    _, (pg, report) = _fused_graph(program)
    names = set(NameInterner.names_of(pg))
    for chain in report.chains:
        assert chain.node_id in names
        for member in chain:
            assert member.instance_id in names


def test_fused_process_run_shrinks_meta_bytes():
    program = _jpip_program()
    plain = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                           max_iterations=4).run()
    fused = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                           max_iterations=4, fuse=True).run()
    assert 0 < fused.pool_stats["meta_pickled_bytes"] < (
        plain.pool_stats["meta_pickled_bytes"]
    )


# -- profitability guard (sliced pairs under parallel headroom) --------------


def _fused_with_headroom(program, headroom, registry=REG):
    pg = program.build_graph()
    solution = check_formats(DiagnosticBag(), program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    return fuse_chains(pg, program, registry, expectations,
                       parallel_headroom=headroom)


def test_sliced_pairs_fuse_only_without_spare_parallel_headroom():
    """Welding slice pairs into one job forfeits cross-iteration overlap,
    so it only pays when there are no spare workers to overlap on."""
    program = _jpip_program()  # sliced stages are 3 copies wide
    for headroom in (None, 1, 3):
        _, report = _fused_with_headroom(program, headroom)
        assert len(report.chains) == 20
        assert not any(
            "unprofitable" in r for r in report.refused.values()
        )
    _, report = _fused_with_headroom(program, 8)
    families = {"+".join(m.class_name for m in c) for c in report.chains}
    # unsliced 1:1 chains always fuse — they have no overlap to forfeit
    assert families == {"mjpeg_source+jpeg_decode"}
    unprofitable = {
        name for name, reason in report.refused.items()
        if "unprofitable" in reason
    }
    assert unprofitable == {
        "bg_plane_y", "bg_plane_u", "bg_plane_v",
        "pip0_plane_y", "pip0_plane_u", "pip0_plane_v",
        "small0_y", "small0_u", "small0_v",
    }


def test_peephole_pairs_are_exempt_from_the_guard():
    """A pair with a real combined kernel elides work outright — that
    beats pipeline overlap, so the guard must not refuse it."""
    program = _jpip_program()
    registry = dict(REG)

    class PeepholeDownscale(registry["downscale_field"]):
        @classmethod
        def compile_fused_pair(cls, upstream_cls, upstream, instance,
                               backend):
            return None  # no kernel yet; the override marks the intent

    registry["downscale_field"] = PeepholeDownscale
    _, report = _fused_with_headroom(program, 8, registry)
    families = {"+".join(m.class_name for m in c) for c in report.chains}
    assert "idct_field+downscale_field" in families
    assert "idct_field+blend_field" not in families
    unprofitable = {
        name for name, reason in report.refused.items()
        if "unprofitable" in reason
    }
    assert unprofitable == {
        "bg_plane_y", "bg_plane_u", "bg_plane_v",
        "small0_y", "small0_u", "small0_v",
    }


def test_blur_n4_never_fuses_with_or_without_headroom():
    """Pin: Blur's stencil stages live in crossdep regions (halo
    exchange), so --fuse welds nothing there no matter the headroom —
    there is no unprofitable fusion for the guard to even refuse."""
    program = make_program(
        build_blur(5, width=48, height=36, slices=4, frames=2,
                   collect=True),
        name="blur5",
    )
    for headroom in (None, 1, 4, 8):
        _, report = _fused_with_headroom(program, headroom)
        assert len(report.chains) == 0
        assert not any(
            "unprofitable" in r for r in report.refused.values()
        )

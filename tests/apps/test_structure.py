"""Structural tests: the app specs expand to the paper's graphs."""

from __future__ import annotations

import pytest

from repro.apps import (
    build_blur,
    build_blur_sequential,
    build_jpip,
    build_jpip_sequential,
    build_pip,
    build_pip_sequential,
    make_program,
)
from repro.core import spec_to_xml, parse_string
from repro.graph import is_series_parallel


def test_pip1_structure():
    prog = make_program(build_pip(1), name="pip1")
    ids = set(prog.components)
    # 2 sources + sink + per field: 8 downscale + 8 blend copies
    assert "bg" in ids and "pip0" in ids and "sink" in ids
    scalers = [i for i in ids if i.startswith("sb0_y/scale")]
    blends = [i for i in ids if i.startswith("sb0_y/blend")]
    assert len(scalers) == 8
    assert len(blends) == 8
    assert len(prog.components) == 3 + 3 * (8 + 8)
    assert not prog.managers


def test_pip2_chains_blends():
    prog = make_program(build_pip(2), name="pip2")
    pg = prog.build_graph()
    # blend1 depends on blend0 within each field (chained via mid stream)
    b0 = "sb0_y/blend[0]"
    b1 = "sb1_y/blend[0]"
    assert b1 in pg.graph.descendants(b0)


def test_pip_graph_is_sp():
    pg = make_program(build_pip(2), name="pip2").build_graph()
    assert is_series_parallel(pg.graph)


def test_pip_slice_assignments():
    prog = make_program(build_pip(1, slices=4), name="pip")
    copies = sorted(
        i for i in prog.components if i.startswith("sb0_y/scale")
    )
    assert [prog.components[c].slice for c in copies] == [
        (0, 4), (1, 4), (2, 4), (3, 4)
    ]


def test_pip_reconfigurable_has_manager_and_bypasses():
    prog = make_program(build_pip(2, reconfigurable=True), name="pip12")
    assert set(prog.managers) == {"mgr"}
    assert set(prog.options) == {"pip_opt"}
    opt = prog.options["pip_opt"]
    assert opt.default_enabled is False
    assert set(opt.bypasses) == {
        ("mid0_y", "out_y"), ("mid0_u", "out_u"), ("mid0_v", "out_v")
    }
    # option members include the second pip's source and blend copies
    assert "pip1" in opt.members
    assert any("sb1_y/blend" in m for m in opt.members)
    # timer present and reachable
    assert "timer" in prog.components


def test_pip_reconfigurable_disabled_graph_drops_option():
    prog = make_program(build_pip(2, reconfigurable=True), name="pip12")
    off = prog.build_graph()
    on = prog.build_graph({"pip_opt": True})
    assert len(on.graph) > len(off.graph)
    assert all("sb1" not in n for n in off.graph.node_ids)
    # sink reads out_y which is bypassed to mid0_y's writer
    assert off.aliases["mid0_y"] == "out_y"


def test_pip_spec_roundtrips_through_xml():
    spec = build_pip(2, reconfigurable=True)
    assert parse_string(spec_to_xml(spec)) == spec


def test_jpip_structure():
    prog = make_program(build_jpip(1), name="jpip1")
    ids = set(prog.components)
    assert "bg_read" in ids and "bg_decode" in ids
    # 45 bg idct Y copies, 44 pip idct Y copies
    bg_idct = [i for i in ids if i.startswith("bg_idct_y/idct")]
    pip_idct = [i for i in ids if i.startswith("pip0_idct_y/idct")]
    assert len(bg_idct) == 45
    assert len(pip_idct) == 44
    blends = [i for i in ids if i.startswith("blend0_y")]
    assert len(blends) == 45
    scales = [i for i in ids if i.startswith("scale0_y")]
    assert len(scales) == 44


def test_jpip_graph_is_sp():
    pg = make_program(build_jpip(1, slices=5), name="jpip").build_graph()
    assert is_series_parallel(pg.graph)


def test_jpip_barriers_between_operations():
    """Every operation separated by a sync point (paper: SP form)."""
    pg = make_program(build_jpip(1), name="jpip").build_graph()
    barriers = [n for n in pg.graph if n.kind == "barrier"]
    assert barriers  # joins inserted at the plural-plural junctions


def test_jpip_reconfigurable():
    prog = make_program(build_jpip(2, reconfigurable=True), name="jpip12")
    assert prog.options["pip_opt"].default_enabled is False
    off = prog.build_graph()
    assert all("pip1_" not in n for n in off.graph.node_ids)


def test_blur_structure_crossdep():
    prog = make_program(build_blur(3), name="blur3")
    pg = prog.build_graph()
    # 9 h copies, 9 v copies with i-1/i/i+1 edges
    for i in range(9):
        for j in range(9):
            has = pg.graph.has_edge(f"h3[{j}]", f"v3[{i}]")
            assert has == (abs(i - j) <= 1)
    assert not is_series_parallel(pg.graph)


def test_blur_prediction_walks_sp_form():
    from repro.graph import sp_ize
    from repro.prediction import wcet_sequential, wcet_span

    prog = make_program(build_blur(5), name="blur5")
    graph = prog.build_graph().graph
    assert is_series_parallel(sp_ize(graph))

    def unit(instance):
        return 1.0

    # source; 9 horizontal copies | ...; 9 vertical copies | ...; sink
    assert wcet_span(prog, unit) == 4
    assert wcet_sequential(prog, unit) == len(graph) == 20


def test_blur_reconfigurable_two_options():
    prog = make_program(build_blur(reconfigurable=True), name="blur35")
    assert set(prog.options) == {"blur3", "blur5"}
    assert prog.options["blur3"].default_enabled is True
    assert prog.options["blur5"].default_enabled is False
    g3 = prog.build_graph()
    assert any(n.startswith("h3") for n in g3.graph.node_ids)
    assert all(not n.startswith("h5") for n in g3.graph.node_ids)
    g5 = prog.build_graph({"blur3": False, "blur5": True})
    assert any(n.startswith("h5") for n in g5.graph.node_ids)


def test_blur_kernel_size_validation():
    with pytest.raises(Exception):
        build_blur(7)


# -- sequential baselines ---------------------------------------------------------


def test_pip_sequential_structure():
    prog = make_program(build_pip_sequential(2), name="seq")
    ids = set(prog.components)
    fused = [i for i in ids if i.startswith("fused")]
    assert len(fused) == 2 * 3  # per pip per field
    assert all(prog.components[i].slice is None for i in ids)
    assert not prog.managers


def test_jpip_sequential_structure():
    prog = make_program(build_jpip_sequential(1), name="seq")
    ids = set(prog.components)
    # decode+IDCT fused per input; downscale+blend fused per pip per field
    assert "bg_decode" in ids
    assert prog.components["bg_decode"].class_name == "jpeg_decode_idct"
    assert "fused0_y" in ids
    assert all(prog.components[i].slice is None for i in ids)


def test_blur_sequential_is_unsliced_two_phase():
    prog = make_program(build_blur_sequential(5), name="seq")
    assert set(prog.components) == {"src", "h", "v", "sink"}


def test_all_apps_expand_and_build():
    specs = [
        build_pip(1), build_pip(2), build_pip(2, reconfigurable=True),
        build_jpip(1, slices=5), build_jpip(2, slices=5),
        build_jpip(2, slices=5, reconfigurable=True),
        build_blur(3), build_blur(5), build_blur(reconfigurable=True),
        build_pip_sequential(1), build_pip_sequential(2),
        build_jpip_sequential(1), build_jpip_sequential(2),
        build_blur_sequential(3), build_blur_sequential(5),
    ]
    for spec in specs:
        prog = make_program(spec, name="app")
        pg = prog.build_graph()
        assert pg.graph.is_acyclic()
        assert len(pg.graph) > 0

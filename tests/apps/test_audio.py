"""The audio/sensor-fusion application: the anti-JPiP workload.

Small int16 records at high rate — held to the same contracts as the
video applications: lint-clean, bit-identical across executors
(``tests/test_conformance.py``), and filters that do real signal work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.engine import lint_spec
from repro.apps import build_audio, make_program
from repro.components.audio import synthetic_record
from repro.components.registry import default_ports, default_registry
from repro.errors import XSPCLError
from repro.hinch import ProcessRuntime, ThreadedRuntime

from tests.test_conformance import assert_conforms

REG = default_registry()


def _spec(**kwargs):
    kwargs.setdefault("channels", 8)
    kwargs.setdefault("block", 64)
    kwargs.setdefault("slices", 2)
    kwargs.setdefault("frames", 4)
    kwargs.setdefault("collect", True)
    return build_audio(**kwargs)


def _records(result):
    return result.components["sink"].ordered_records()


def run_threaded(spec, *, iters, nodes=2, depth=2, **kwargs):
    program = make_program(spec, name="audio")
    return ThreadedRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                           max_iterations=iters, **kwargs).run()


def test_lints_clean_both_variants():
    ports = default_ports(REG)
    for reconf in (False, True):
        diags = lint_spec(_spec(reconfigurable=reconf), ports=ports,
                          name="audio")
        assert not [d for d in diags if d.severity is Severity.ERROR]


def test_records_are_small():
    """The point of the app: ~1 KiB records, not video frames."""
    record = synthetic_record(0, 8, 64, seed=7)
    assert record.dtype == np.int16
    assert record.nbytes == 8 * 64 * 2  # 1 KiB


def test_builder_rejects_degenerate_geometry():
    # the record dimensions are the components' typed params (X120)
    with pytest.raises(XSPCLError, match="param 'channels' must be"):
        make_program(build_audio(channels=0, slices=0), name="audio")
    with pytest.raises(XSPCLError, match="param 'block' must be"):
        make_program(build_audio(block=0), name="audio")
    with pytest.raises(XSPCLError):
        build_audio(channels=4, slices=8)


@pytest.mark.parametrize("workers", [1, 3])
def test_identical_records_across_backends(workers):
    assert_conforms(_spec(), 6, ("threaded", 2, 2), ("process", workers, 2),
                    name="audio")


def test_process_build_fuses_the_mixer_into_the_sink():
    """Each band filter runs as one copy, so every stream is 1:1 and the
    chain compiler makes the whole record path, mixer and sink included,
    one job; its records are ``tests/test_conformance.py``'s."""
    rt = ProcessRuntime(make_program(_spec(), name="audio"), REG, workers=2,
                        pipeline_depth=2, max_iterations=6)
    (node,) = rt.pg.graph
    assert node.node_id == "+".join(rt.pg.active_components)


def test_bypass_passes_mic_through_when_branch_off():
    """With the branch disabled the sink streams the filtered mic signal
    (the bypass), not silence; with it enabled, the fused signal — so a
    toggling run mixes records equal to the static fused run with
    records that differ from it."""
    fused = _records(run_threaded(_spec(), iters=6, nodes=1, depth=1))
    result = run_threaded(_spec(reconfigurable=True, period=2),
                          iters=6, nodes=1, depth=1)
    records = _records(result)
    assert len(records) == 6
    assert result.reconfig_count > 0
    matches = [np.array_equal(r, f) for r, f in zip(records, fused)]
    assert any(matches)  # enabled phases reproduce the fused signal
    assert not all(matches)  # passthrough phases visibly drop the branch
    assert all(r.any() for r in records)  # never silence


def test_band_filter_does_real_work():
    """smooth attenuates the noise floor; diff amplifies transitions."""
    spec = _spec(slices=1)
    result = run_threaded(spec, iters=2, nodes=1, depth=1)
    fused = _records(result)[0]
    raw_mic = synthetic_record(0, 8, 64, seed=7)
    # fused output differs from any raw input: the filters did something
    assert not np.array_equal(fused, raw_mic)
    assert fused.shape == raw_mic.shape


def test_band_filter_resolves_its_taps_once_and_on_reconfigure():
    from repro.components.audio import BandFilter
    from repro.core.program import ComponentInstance
    from repro.errors import ComponentError

    def instance(**params):
        return ComponentInstance(
            instance_id="f", definition_id="f", class_name="band_filter",
            streams={"input": "a", "output": "b"},
            params=BandFilter.ports.bind(
                "f", {"channels": 8, "block": 64, **params}),
        )

    assert BandFilter(instance())._kernel == (0.25, 0.5, 0.25)
    diff = BandFilter(instance(taps="diff"))
    assert diff._kernel == (-1.0, 2.0, -1.0)
    diff.reconfigure("taps=smooth")
    assert diff._kernel == (0.25, 0.5, 0.25)
    # a bad value fails where it is set, not at the first job
    with pytest.raises(ComponentError, match="param 'taps' must be one of"):
        BandFilter(instance(taps="boxcar"))
    with pytest.raises(ComponentError, match="param 'taps' must be one of"):
        diff.reconfigure("taps=boxcar")


def test_band_filter_group_is_width_elastic():
    """Each sensor branch's band filter is one data-parallel group whose
    copies tile ``0..slices-1``."""
    program = make_program(_spec(), name="audio")
    groups: dict[str, list[tuple[int, int]]] = {}
    for instance in program.components.values():
        if instance.class_name == "band_filter":
            groups.setdefault(instance.definition_id, []).append(
                instance.slice)
    assert len(groups) == 2  # one group per sensor branch
    for slices in groups.values():
        assert sorted(slices) == [(0, 2), (1, 2)]

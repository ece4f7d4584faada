"""The audio/sensor-fusion application: the anti-JPiP workload.

Small int16 records at high rate — held to the same contracts as the
video applications: lint-clean, bit-identical across backends (including
under batching, fusion, and reconfiguration), and filters that do real
signal work.
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


def run_process(spec, *, iters, workers=2, depth=2, **kwargs):
    program = make_program(spec, name="audio")
    return ProcessRuntime(program, REG, workers=workers, pipeline_depth=depth,
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
    spec = _spec()
    a = _records(run_threaded(spec, iters=6))
    b = _records(run_process(spec, iters=6, workers=workers))
    assert len(a) == len(b) == 6
    for x, y in zip(a, b):
        assert x.dtype == np.int16
        assert np.array_equal(x, y)


def test_identical_under_batching_and_fusion():
    spec = _spec()
    base = _records(run_threaded(spec, iters=6))
    batched = _records(run_process(spec, iters=6, workers=2, batch=3))
    fused = _records(run_process(spec, iters=6, workers=2, fuse=True))
    assert len(batched) == len(fused) == 6
    for x, y, z in zip(base, batched, fused):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


def test_reconfigurable_variant_toggles_and_matches():
    """The vib branch toggles every ``period`` records; sequential runs
    of both backends see the same reconfiguration points and records."""
    spec = _spec(reconfigurable=True, period=3)
    thr = run_threaded(spec, iters=8, nodes=1, depth=1)
    prc = run_process(spec, iters=8, workers=1, depth=1)
    assert thr.reconfig_count == prc.reconfig_count > 0
    a, b = _records(thr), _records(prc)
    assert len(a) == len(b) == 8
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


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

"""Runtime enforcement of reconciled stream formats (StreamFormatError)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.components import filters
from repro.components.registry import default_ports, default_registry
from repro.components.streaming import DownscaleField
from repro.core import AppBuilder, expand
from repro.errors import StreamError, StreamFormatError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.stream import Stream, StreamStore
from repro.spacecake import SimRuntime


def test_put_against_expectation_raises_structured_error():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    with pytest.raises(StreamFormatError) as exc_info:
        s.put(0, np.zeros((4, 4), dtype=np.uint8), writer="cam")
    err = exc_info.value
    assert err.stream == "frames"
    assert err.iteration == 0
    assert err.node == "cam"
    assert err.declared == ((8, 8), "uint8")
    assert err.observed == ((4, 4), "uint8")
    assert "X501" in str(err)


def test_put_matching_expectation_passes():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    s.put(0, np.zeros((8, 8), dtype=np.uint8), writer="cam")
    assert s.observed == ("plane", (8, 8), "uint8")


def test_ensure_buffer_against_expectation_raises():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    with pytest.raises(StreamFormatError, match="geometry mismatch"):
        s.ensure_buffer(0, shape=(8, 8), dtype=np.float32, writer="scale")


def test_format_error_is_a_stream_error():
    # callers catching the historical StreamError keep working
    assert issubclass(StreamFormatError, StreamError)


def test_slice_copy_disagreement_still_raises():
    s = Stream("frames")  # no expectation installed: first-write rules
    s.ensure_buffer(0, shape=(8, 8), dtype=np.uint8, writer="scale/0")
    with pytest.raises(StreamFormatError) as exc_info:
        s.ensure_buffer(0, shape=(4, 8), dtype=np.uint8, writer="scale/1")
    assert exc_info.value.node == "scale/1"


def test_opaque_payloads_are_not_validated():
    s = Stream("bits")
    s.set_expected((8, 8), np.uint8)  # a solver bug should not break objects

    class Blob:
        FORMAT_KIND = "bitstream"

    s.put(0, Blob(), writer="enc")
    assert s.observed == ("bitstream", None, None)


def test_store_installs_expectations_on_existing_and_new_streams():
    store = StreamStore()
    early = store.stream("a")
    store.set_expectations({"a": ((8, 8), "uint8"), "b": ((4, 4), "uint8")})
    late = store.stream("b")
    assert early.expected == ((8, 8), np.dtype("uint8"))
    assert late.expected == ((4, 4), np.dtype("uint8"))
    # reconfiguration replaces the table; dropped streams revert to inference
    store.set_expectations({"b": ((2, 2), "uint8")})
    assert early.expected is None
    assert late.expected == ((2, 2), np.dtype("uint8"))


def test_shape_only_buffer_gets_the_solved_dtype():
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    assert s.ensure_buffer(0, shape=(8, 8), writer="scale/0").dtype == np.uint8
    # a later copy naming no dtype matches the slot it allocated
    assert s.ensure_buffer(0, shape=(8, 8), writer="scale/1").dtype == np.uint8
    with pytest.raises(StreamFormatError):
        s.ensure_buffer(1, shape=(4, 8), writer="scale/0")
    # with no solved format the request keeps numpy's default dtype
    assert Stream("free").ensure_buffer(0, shape=(2, 2)).dtype == np.float64


class ShapeOnlyDownscale(DownscaleField):
    """A sliced writer that names its buffer's shape and not its dtype."""

    def run(self, job) -> None:
        src = job.read("input")
        h, w = src.shape
        out = job.buffer("output", shape=(h // self.factor, w // self.factor))
        filters.downscale_plane(src, self.factor, out=out, rows=self.span)


@pytest.mark.parametrize("runtime_cls, kwargs", [
    pytest.param(ThreadedRuntime, {"nodes": 1}, id="threaded-1"),
    pytest.param(ThreadedRuntime, {"nodes": 2}, id="threaded-2"),
    pytest.param(ProcessRuntime, {"workers": 2}, id="process-2"),
    pytest.param(SimRuntime, {"nodes": 2, "execute": True}, id="sim-2"),
])
def test_shape_only_sliced_writer_keeps_the_format_contract(runtime_cls,
                                                            kwargs):
    """On a stream the solver pins to uint8, a ``job.buffer(shape=...)``
    with no dtype allocates uint8 on every executor — not numpy's
    float64 default, which a process worker's dispatcher refuses."""
    w, h, factor = 64, 48, 4
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "big"},
                   params={"width": w, "height": h, "seed": 3})
    with main.parallel("slice", n=4):
        main.component("scale", "downscale_field",
                       streams={"input": "big", "output": "small"},
                       params={"width": w, "height": h, "factor": factor})
    main.component("sink", "plane_sink", streams={"input": "small"},
                   params={"width": w // factor, "height": h // factor,
                           "collect": True})
    program = expand(b.build(), default_ports())
    registry = {**default_registry(), "downscale_field": ShapeOnlyDownscale}
    planes = runtime_cls(program, registry, max_iterations=4,
                         **kwargs).run().components["sink"].ordered_planes()
    reference = ThreadedRuntime(program, default_registry(),
                                max_iterations=4).run()
    assert len(planes) == 4
    for plane, want in zip(planes,
                           reference.components["sink"].ordered_planes()):
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, want)

"""Runtime enforcement of reconciled stream formats (StreamFormatError)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import lint_spec
from repro.components.registry import default_ports, default_registry
from repro.core import AppBuilder, expand
from repro.core.ports import PortSpec
from repro.errors import StreamError, StreamFormatError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.component import Component, JobContext
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
    """The buffer is the expectation; a whole write of another geometry
    is refused at the put, naming its writer."""
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    buf = s.ensure_buffer(0, writer="scale")
    assert (buf.shape, buf.dtype) == ((8, 8), np.uint8)
    with pytest.raises(StreamFormatError, match="geometry mismatch") as info:
        s.put(1, np.zeros((8, 8), np.float32), writer="scale")
    assert (info.value.stream, info.value.node) == ("frames", "scale")


def test_format_error_is_a_stream_error():
    # callers catching the historical StreamError keep working
    assert issubclass(StreamFormatError, StreamError)


def test_slice_copy_disagreement_still_raises():
    """Slice copies cannot disagree on a buffer they do not describe;
    what remains to refuse is a sliced writer whose stream has no solved
    format, and lint does, naming the stream and the node."""
    diagnostics = lint_spec(unsolved_slice_app().build(),
                            ports=default_ports())
    [x507] = [d for d in diagnostics if d.code == "X507"]
    assert "'frames'" in x507.message and x507.where == "scale"
    # a direct request on such a stream names both too
    with pytest.raises(StreamFormatError, match="X507") as info:
        Stream("frames").ensure_buffer(0, writer="scale")
    assert (info.value.stream, info.value.node) == ("frames", "scale")


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
    """Every copy gets the solved shape and dtype, not numpy's defaults."""
    s = Stream("frames")
    s.set_expected((8, 8), np.uint8)
    first = s.ensure_buffer(0, writer="scale/0")
    assert (first.shape, first.dtype) == ((8, 8), np.uint8)
    assert s.ensure_buffer(0, writer="scale/1") is first
    assert s.ensure_buffer(1, writer="scale/0").dtype == np.uint8


def test_a_new_format_never_hands_out_an_old_spare():
    """A splice re-solving the format installs a fresh spare list: an
    array of the old geometry, even one whose iteration retires after
    the change, is never handed out again."""
    store = StreamStore()
    s = store.stream("frames")
    s.set_expected((8, 8), np.uint8)
    old0, old1 = s.ensure_buffer(0), s.ensure_buffer(1)
    store.release_iteration(0)
    s.set_expected((4, 8), np.uint8)
    store.release_iteration(1)  # an older iteration retires after it
    handed = [s.ensure_buffer(k) for k in (2, 3, 4)]
    assert all(b.shape == (4, 8) for b in handed)
    assert not any(b is old0 or b is old1 for b in handed)
    # the new geometry's own spares are reused
    store.release_iteration(2)
    assert s.ensure_buffer(5) is handed[0]


def unsolved_slice_app() -> AppBuilder:
    """luma_source -> 4 sliced map_plane copies -> plane_sink, with the
    dtype of the copies' output stream ``frames`` left open."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": 16, "height": 16},
                   formats={"output": "kind=plane shape=height,width"})
    with main.parallel("slice", n=4):
        main.component("scale", "map_plane",
                       streams={"input": "raw", "output": "frames"},
                       params={"width": 16, "height": 16,
                               "kernel": "invert"})
    main.component("sink", "plane_sink", streams={"input": "frames"},
                   params={"width": 16, "height": 16},
                   formats={"input": "kind=plane shape=height,width"})
    return b


EXECUTORS = [
    pytest.param(ThreadedRuntime, {"nodes": 1}, id="threaded-1"),
    pytest.param(ThreadedRuntime, {"nodes": 2}, id="threaded-2"),
    pytest.param(ProcessRuntime, {"workers": 2}, id="process-2"),
    pytest.param(SimRuntime, {"nodes": 2, "execute": True}, id="sim-2"),
]


@pytest.mark.parametrize("runtime_cls, kwargs", EXECUTORS)
def test_an_unsolved_sliced_writer_fails_at_build(runtime_cls, kwargs):
    program = expand(unsolved_slice_app().build(), default_ports())
    with pytest.raises(StreamFormatError, match="X507") as info:
        runtime_cls(program, default_registry(), max_iterations=2, **kwargs)
    assert "'scale'" in str(info.value) and "'frames'" in str(info.value)


def open_dtype_unsliced_app() -> AppBuilder:
    """luma_source -> one unsliced map_plane -> plane_sink, with the dtype
    of the map's output stream ``frames`` left open."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": 16, "height": 16})
    main.component("scale", "map_plane",
                   streams={"input": "raw", "output": "frames"},
                   params={"width": 16, "height": 16, "kernel": "invert"},
                   formats={"input": "kind=plane shape=?h,?w dtype=uint8"})
    main.component("sink", "plane_sink", streams={"input": "frames"},
                   params={"width": 16, "height": 16},
                   formats={"input": "kind=plane shape=height,width"})
    return b


class Peek(Component):
    """A reader that declares no format."""

    ports = PortSpec(inputs=("input",))

    def run(self, job: JobContext) -> None:
        job.read("input")


def bridged_with_undeclared_reader_app() -> AppBuilder:
    """luma_source's uint8 ``raw`` feeds a float32 plane_sink (an X504
    bridge) and a reader with no format, so ``raw`` has no solved
    format for the inserted ``convert_plane`` to allocate from."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": 16, "height": 16})
    main.component("sink", "plane_sink", streams={"input": "raw"},
                   params={"width": 16, "height": 16},
                   formats={"input": "kind=plane shape=height,width "
                                     "dtype=float32"})
    main.component("peek", "peek", streams={"input": "raw"})
    return b


@pytest.mark.parametrize("runtime_cls, kwargs", EXECUTORS)
def test_an_unsolved_unsliced_buffer_writer_fails_at_build(runtime_cls,
                                                           kwargs):
    """Unsliced, map_plane still allocates its output with job.buffer."""
    spec = open_dtype_unsliced_app().build()
    [x507] = [d for d in lint_spec(spec, ports=default_ports())
              if d.code == "X507"]
    assert "'frames'" in x507.message and x507.where == "scale"
    with pytest.raises(StreamFormatError, match="X507") as info:
        runtime_cls(expand(spec, default_ports()), default_registry(),
                    max_iterations=2, **kwargs)
    assert "'scale'" in str(info.value) and "'frames'" in str(info.value)


@pytest.mark.parametrize("runtime_cls, kwargs", EXECUTORS)
def test_an_unsolved_dtype_bridge_fails_at_build(runtime_cls, kwargs):
    """The convert_plane a build would insert allocates its output from
    the bridged stream's format: with none, X507 at the X506 site."""
    ports = {**default_ports(), "peek": Peek.ports}
    spec = bridged_with_undeclared_reader_app().build()
    codes = {d.code: d for d in lint_spec(spec, ports=ports)}
    assert {"X504", "X506", "X507"} <= set(codes)
    assert "'raw'" in codes["X507"].message
    assert codes["X507"].where == "sink"
    with pytest.raises(StreamFormatError, match="X507") as info:
        runtime_cls(expand(spec, ports), {**default_registry(), "peek": Peek},
                    max_iterations=2, **kwargs)
    assert "'raw'" in str(info.value) and "convert_plane" in str(info.value)


@pytest.mark.parametrize("runtime_cls, kwargs", EXECUTORS)
def test_shape_only_sliced_writer_keeps_the_format_contract(runtime_cls,
                                                            kwargs):
    """A sliced writer names only its port: on a stream the solver pins
    to uint8, every executor allocates the solved uint8 plane."""
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
    planes = runtime_cls(program, default_registry(), max_iterations=4,
                         **kwargs).run().components["sink"].ordered_planes()
    reference = ThreadedRuntime(program, default_registry(),
                                max_iterations=4).run()
    assert len(planes) == 4
    for plane, want in zip(planes,
                           reference.components["sink"].ordered_planes()):
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, want)

"""Unit tests for the Component base class and JobContext."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.errors import ComponentError, StreamError, StreamFormatError
from repro.hinch.component import Component, JobContext
from repro.hinch.events import EventBroker
from repro.hinch.stream import StreamStore


def make_instance(**overrides) -> ComponentInstance:
    defaults = dict(
        instance_id="x",
        definition_id="x",
        class_name="test",
        params={"gain": 2, "mode": "slow"},
        streams={"input": "in", "output": "out"},
    )
    defaults.update(overrides)
    return ComponentInstance(**defaults)


class Probe(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",), params={
        "gain": Param("int", required=True), "pos": Param("pos"),
        "mode": Param("enum", choices=("fast", "slow"), default="slow"),
        "a": Param("int"), "b": Param("str"),
    })

    def run(self, job):
        job.write("output", job.read("input"))


def test_params_copied_not_shared():
    inst = make_instance()
    c = Probe(inst)
    c.params["gain"] = 99
    assert inst.params["gain"] == 2


def test_param_accessors():
    """``params`` holds what the schema bound: typed, defaults filled."""
    c = Probe(make_instance(params=Probe.ports.bind("x", {"gain": 2.0})))
    # ``pos`` is optional without a default: it stays absent
    assert c.params == {"gain": 2, "mode": "slow"}
    assert type(c.params["gain"]) is int
    with pytest.raises(ComponentError, match="missing required params"):
        Probe.ports.bind("x", {})


def test_reconfigure_updates_params():
    c = Probe(make_instance())
    c.reconfigure("pos=3,4; mode=fast")
    assert c.params["pos"] == (3, 4)
    assert c.params["mode"] == "fast"


@pytest.mark.parametrize("request_, message", [
    ("pos=3", "param 'pos' must be a row,col pair"),
    ("pos=a,b", "param 'pos' must be a row,col pair"),
    ("gain=x", "param 'gain' must be an integer"),
    ("gain=2.5", "param 'gain' must be an integer"),
    ("gain=true", "param 'gain' must be an integer"),
    ("bogus=1", "unknown params \\['bogus'\\]"),
])
def test_reconfigure_rejects_a_bad_request(request_, message):
    c = Probe(make_instance())
    with pytest.raises(ComponentError, match=message):
        c.reconfigure(request_)
    assert c.params == {"gain": 2, "mode": "slow"}  # unchanged


def test_reconfigure_slice_assignment():
    c = Probe(make_instance())
    assert c.slice is None
    c.reconfigure("slice=2/8")
    assert c.slice == (2, 8)


@pytest.mark.parametrize("request_", [
    "slice=3/2",   # index past the copy count
    "slice=-1/2",  # negative index
    "slice=1/0",   # no copies
    "slice=x/2",   # not a number
    "slice=1",     # no copy count
])
def test_reconfigure_bad_slice_rejected_at_the_request(request_):
    c = Probe(make_instance(instance_id="blend[1]"))
    with pytest.raises(ComponentError) as info:
        c.reconfigure(request_)
    assert "'blend[1]'" in str(info.value)
    assert repr(request_) in str(info.value)
    assert c.slice is None  # the assignment is unchanged


class Derived(Probe):
    """Derives its state in configure(); counts how often."""

    def configure(self):
        self.configured = getattr(self, "configured", 0) + 1
        self.gain = self.params["gain"]
        self.part = self.slice


def test_configure_runs_at_creation_and_after_every_reconfigure():
    c = Derived(make_instance(slice=(1, 4)))
    assert (c.configured, c.gain, c.part) == (1, 2, (1, 4))
    c.reconfigure("gain=5")
    assert (c.configured, c.gain) == (2, 5)
    c.reconfigure("slice=2/4")
    assert (c.configured, c.part) == (3, (2, 4))


def test_reconfigure_malformed_rejected():
    c = Probe(make_instance())
    with pytest.raises(ComponentError, match="malformed"):
        c.reconfigure("not-a-kv-pair")


def test_reconfigure_empty_segments_ignored():
    c = Probe(make_instance())
    c.reconfigure("a=1;;  ; b=2")
    assert c.params["a"] == 1
    assert c.params["b"] == "2"


def test_slice_from_instance():
    c = Probe(make_instance(slice=(1, 4)))
    assert c.slice == (1, 4)


def test_default_cost_profile_is_none():
    assert Component.cost_profile(make_instance()) is None
    assert Component.always_execute is False


# -- JobContext ---------------------------------------------------------------------


def make_ctx(instance=None, iteration=0, aliases=None, stop=None):
    return JobContext(
        instance or make_instance(),
        iteration,
        StreamStore(),
        EventBroker(),
        aliases or {},
        stop_requester=stop,
    )


def test_ctx_read_write_pass_the_value_through():
    ctx = make_ctx()
    data = np.zeros(100, dtype=np.uint8)
    ctx._streams.stream("in").put(0, data)
    got = ctx.read("input")
    assert got is data
    ctx.write("output", data)
    assert ctx._streams.stream("out").get(0) is data


def test_ctx_direct_read_keeps_the_stream_checks_and_counters():
    ctx = make_ctx()
    with pytest.raises(StreamError, match="read before write"):
        ctx.read("input")
    ctx._streams.stream("in").put(0, 42)
    assert ctx.read("input") == ctx.read("input") == 42
    assert ctx._streams.stream("in").stats == (1, 2)


def test_ctx_later_slice_copy_is_checked_like_the_first():
    store = StreamStore()
    first, later = (
        JobContext(make_instance(instance_id=f"x[{i}]"), 0, store,
                   EventBroker(), {})
        for i in range(2)
    )
    buf = first.buffer("output", shape=(4, 2), dtype=np.uint8)
    assert later.buffer("output", shape=(4, 2), dtype=np.uint8) is buf
    # near-misses are normalised by the stream, and still share the slot
    assert later.buffer("output", shape=[4, 2], dtype="uint8") is buf
    assert later.buffer("output", shape=(4, 2)) is buf
    with pytest.raises(StreamFormatError, match="slot already allocated"):
        later.buffer("output", shape=(4, 2), dtype=np.float64)
    with pytest.raises(StreamFormatError, match="slot already allocated"):
        later.buffer("output", shape=(2, 2), dtype=np.uint8)
    assert store.stream("out").stats == (4, 0)
    # a solved format is the authority even over a request that is
    # literally the slot allocated before the format was solved
    first.iteration = later.iteration = 1
    first.buffer("output", shape=(4, 2), dtype=np.uint8)
    store.stream("out").set_expected((4, 4), np.uint8)
    with pytest.raises(StreamFormatError, match="reconciled port format"):
        later.buffer("output", shape=(4, 2), dtype=np.uint8)
    # and a put finalises the slot for every copy
    first.iteration = later.iteration = 2
    first.write("output", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(StreamError, match="after finalizing"):
        later.buffer("output", shape=(4, 4), dtype=np.uint8)


def test_ctx_unknown_port_rejected():
    ctx = make_ctx()
    with pytest.raises(ComponentError, match="no port"):
        ctx.read("bogus")


def test_ctx_alias_resolution():
    ctx = make_ctx(aliases={"out": "final"})
    ctx.write("output", 1)
    assert ctx._streams.stream("final").get(0) == 1
    assert not ctx._streams.stream("out").has(0)


def test_ctx_buffer_is_the_slot():
    ctx = make_ctx()
    buf = ctx.buffer("output", shape=(8,))
    buf[:] = 5
    assert np.all(ctx._streams.stream("out").get(0) == 5)


def test_ctx_post_event():
    ctx = make_ctx()
    ctx.post_event("ui", "pressed", payload=3)
    events = ctx._broker.queue("ui").poll()
    assert len(events) == 1
    assert events[0].source == "x"
    assert events[0].payload == 3


def test_ctx_request_stop():
    calls = []
    ctx = make_ctx(stop=lambda: calls.append(1))
    ctx.request_stop()
    assert calls == [1]
    # without a requester it is a no-op
    make_ctx().request_stop()


def test_port_spec_validation():
    with pytest.raises(ComponentError, match="both input and output"):
        PortSpec(inputs=("a",), outputs=("a",))
    spec = PortSpec(inputs=("i",), outputs=("o",), params={
        "x": Param("int", required=True), "y": Param("str")})
    assert spec.is_input("i") and spec.is_output("o")
    assert spec.all_ports == ("i", "o")
    assert spec.bind("c", {"x": 1, "y": "a"}) == {"x": 1, "y": "a"}
    with pytest.raises(ComponentError, match="'c' missing required"):
        spec.bind("c", {"y": "a"})
    with pytest.raises(ComponentError, match="unknown params"):
        spec.bind("c", {"x": 1, "zzz": 2})
    open_spec = PortSpec(open_params=True)
    assert open_spec.bind("c", {"anything": 1, "goes": "x"}) == {
        "anything": 1, "goes": "x"}
    with pytest.raises(ComponentError, match="unknown param kind"):
        Param("complex")

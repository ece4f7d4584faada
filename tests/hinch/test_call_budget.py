"""Interpreter work per job: a deterministic guard on the coordination layer.

``calls_per_frame`` in the repo benchmark counts every ``call``/``c_call``
profile event of a ``nodes=1`` run.  This is the same count, on a fixed
no-op pipeline and restricted to the events ``repro/hinch`` owns, so a
regression in the per-job path fails tier-1 and names its layer instead
of surfacing as a benchmark delta.  Events are attributed to the nearest
enclosing frame under the ``repro`` package: a C call made by
``Stream.put`` belongs to ``hinch/stream.py``, the components' own
``run`` frames (defined here, outside the package) to whoever called them.
"""

from __future__ import annotations

import collections
import gc
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components import filters, skeletons
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.core.ports import Param, PortSpec
from repro.hinch import ThreadedRuntime
from repro.hinch.component import Component, JobContext, row_span
from repro.hinch.stream import LockedStream, Stream

PACKAGE = str(Path(repro.__file__).parent) + "/"

#: hinch-owned profile events per job.  Measured 11.1 on CPython 3.11 for
#: this pipeline at nodes=1, where jobs run inline, streams take no lock,
#: a port access is one frame and a stream recycles its own sliced buffers
#: (12.9 while a plane pool acquired and released them; 15.1 while src+a
#: and b+c ran as grouped two-step jobs; with those groups, 18.8 with a
#: ``Stream`` method behind every access, job byte counters and a
#: ``Job.__init__`` per ready job;
#: 21.7 with a lock per stream access; 31.4 with a worker thread, the job
#: queue and a lock per completion; 67.9 before node plans, which also
#: read the clock twice per job); the ~40 % head-room covers what 3.10
#: and 3.12 count differently (method-descriptor calls) — not a
#: ``JobContext`` rebuilt per job, a queue hop or a stream lock per job.
BUDGET = 16
ITERATIONS = 40


class Source(Component):
    ports = PortSpec(outputs=("output",))

    def __init__(self, instance):
        super().__init__(instance)
        self.record = np.zeros((6, 4), dtype=np.uint8)

    def run(self, job: JobContext) -> None:
        job.write("output", self.record)


class Forward(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",))

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))


class SlicedForward(Component):
    """Every copy maps the shared buffer; none computes anything."""

    ports = PortSpec(inputs=("input",), outputs=("output",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        job.buffer("output", shape=data.shape, dtype=data.dtype)


class Sink(Component):
    ports = PortSpec(inputs=("input",))

    def run(self, job: JobContext) -> None:
        job.read("input")


REGISTRY = {"source": Source, "forward": Forward,
            "sliced_forward": SlicedForward, "sink": Sink}
PORTS = {name: cls.ports for name, cls in REGISTRY.items()}


def _pipeline(nodes: int = 1) -> ThreadedRuntime:
    """src -> a -> 3 sliced copies -> b -> c -> d | e -> sink."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "s0"})
    main.component("a", "forward", streams={"input": "s0", "output": "s1"})
    with main.parallel("slice", n=3):
        main.component("sl", "sliced_forward",
                       streams={"input": "s1", "output": "s2"})
    main.component("b", "forward", streams={"input": "s2", "output": "s3"})
    main.component("c", "forward", streams={"input": "s3", "output": "s4"})
    with main.parallel("task"):
        with main.parblock():
            main.component("d", "forward",
                           streams={"input": "s4", "output": "s5"})
        with main.parblock():
            main.component("e", "sink", streams={"input": "s4"})
    main.component("snk", "sink", streams={"input": "s5"})
    return ThreadedRuntime(
        expand(b.build(), PORTS), REGISTRY, nodes=nodes, pipeline_depth=5,
        max_iterations=ITERATIONS,
    )


def _owner(frame) -> str:
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(PACKAGE):
            return filename[len(PACKAGE):]
        frame = frame.f_back
    return "<outside repro>"


def _profiled_run(rt: ThreadedRuntime):
    owners: collections.Counter[str] = collections.Counter()
    clock_reads = [0]

    def profile(frame, event, arg):
        if event == "call":
            owners[_owner(frame)] += 1
        elif event == "c_call":
            owners[_owner(frame)] += 1
            if arg is time.perf_counter:
                clock_reads[0] += 1

    gc.collect()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return result, owners, clock_reads[0]


def test_pipeline_shape_is_the_one_the_budget_was_set_on():
    rt = _pipeline()
    members = {node.node_id: len(node.members) for node in rt.pg.graph}
    # threads never group: three slice copies and seven plain nodes
    assert members == {"src": 1, "a": 1, "sl[0]": 1, "sl[1]": 1, "sl[2]": 1,
                       "b": 1, "c": 1, "d": 1, "e": 1, "snk": 1}


@pytest.fixture(scope="module")
def profiled():
    _pipeline().run()  # warm-up: imports, numpy's lazy set-up
    rt = _pipeline()
    jobs = len(rt.pg.graph) * ITERATIONS
    result, owners, clock_reads = _profiled_run(rt)
    assert result.completed_iterations == ITERATIONS
    return jobs, owners, clock_reads


def test_hinch_calls_per_job_within_budget(profiled):
    jobs, owners, _ = profiled
    hinch = sum(n for owner, n in owners.items() if owner.startswith("hinch/"))
    table = "\n".join(
        f"  {owner:28s} {n / jobs:7.2f}" for owner, n in owners.most_common()
    )
    assert hinch / jobs <= BUDGET, (
        f"{hinch / jobs:.1f} hinch-owned calls per job (budget {BUDGET}); "
        f"calls per job by owning module:\n{table}"
    )
    # nodes=1 runs inline: no job ever passes through the central queue
    assert owners["hinch/jobqueue.py"] == 0, table
    # ... and its streams recycle their own buffers: no plane pool
    assert owners["hinch/shm.py"] == 0, table


def test_tracing_off_never_reads_the_clock_per_job(profiled):
    _, _, clock_reads = profiled
    # run() times itself (start, elapsed); jobs must not
    assert clock_reads == 2


def _entries(rt: ThreadedRuntime, *functions) -> tuple:
    """Run ``rt`` counting how often each function's frame is entered."""
    codes = [f.__code__ for f in functions]
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[frame.f_code] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert result.completed_iterations == ITERATIONS
    return result, tuple(counts[code] for code in codes)


def test_a_lock_free_port_access_is_one_frame():
    """At nodes=1 every read finds its slot written and only the first
    slice copy of s2 allocates, so ``Stream.get`` is never entered and
    ``Stream.ensure_buffer`` once per iteration — for that first copy."""
    _, (gets, ensures) = _entries(_pipeline(), Stream.get,
                                  Stream.ensure_buffer)
    assert gets == 0
    assert ensures == ITERATIONS  # one sliced stream, s2


def test_concurrent_slice_copies_share_one_locked_plane():
    """At nodes=4 the streams lock and take no fast path: every access
    enters a ``LockedStream`` method, and the three racing copies of s2
    still share exactly one array per iteration."""
    rt = _pipeline(nodes=4)
    assert all(type(rt.streams.stream(name)) is LockedStream
               for name in ("s1", "s2"))
    s2 = rt.streams.stream("s2")
    handed = collections.defaultdict(list)
    ensure_buffer = s2.ensure_buffer

    def recording(iteration, *args, **kwargs):
        buffer = ensure_buffer(iteration, *args, **kwargs)
        handed[iteration].append(buffer)
        return buffer

    s2.ensure_buffer = recording
    result, (gets, ensures) = _entries(rt, LockedStream.get,
                                       LockedStream.ensure_buffer)
    # reads: a, the three copies, b, c, d, e, snk
    assert gets == 9 * ITERATIONS
    assert ensures == 3 * ITERATIONS
    assert sorted(handed) == list(range(ITERATIONS))
    for buffers in handed.values():
        assert len(buffers) == 3
        assert all(b is buffers[0] for b in buffers)
    assert result.pool_stats == {}


def _skeletons():
    b = AppBuilder()
    main = b.procedure("main")
    geometry = {"width": 48, "height": 36}
    main.component("src", "luma_source", streams={"output": "a"},
                   params=geometry)
    with main.parallel("slice", n=3):
        main.component("map", "map_plane", streams={"input": "a", "output": "b"},
                       params={**geometry, "kernel": "gain", "factor": 1.5})
    with main.parallel("crossdep", n=3):
        with main.parblock():
            main.component("edge", "stencil_plane",
                           streams={"input": "b", "output": "c"},
                           params={**geometry, "kernel": "edge"})
    main.component("mon", "monitor", streams={"input": "c", "output": "d"},
                   params={**geometry, "op": "mean", "threshold": 10.0,
                           "queue": "ui", "event": "dark"})
    main.component("sink", "plane_sink", streams={"input": "d"},
                   params=geometry)
    return b.build()


#: what a shipped component derives once per configuration
#: (``Component.configure``), never per job
DERIVATIONS = {
    PortSpec.bind.__code__: "bind",
    Param.coerce.__code__: "coerce",
    skeletons.kernel.__code__: "kernel",
    row_span.__code__: "row_span",
    # the kernel body, behind its per-(size, sigma) cache
    getattr(filters.gaussian_kernel_1d, "__wrapped__",
            filters.gaussian_kernel_1d).__code__: "gaussian_kernel_1d",
}


@pytest.mark.parametrize("spec", [
    # downscale_field + blend_field, 4-way sliced
    pytest.param(lambda: build_pip(1, width=64, height=48, factor=4,
                                   slices=4), id="pip"),
    # blur_h_field + blur_v_field, crossdep over 3 slices
    pytest.param(lambda: build_blur(5, width=48, height=36, slices=3),
                 id="blur"),
    # idct_field, 4-way sliced, then downscale + blend
    pytest.param(lambda: build_jpip(1, width=64, height=64, pip_height=64,
                                    factor=4, slices=4), id="jpip"),
    # map_plane 3-way sliced, stencil_plane crossdep over 3, a monitor
    pytest.param(lambda: _skeletons(), id="skeletons"),
])
def test_shipped_fields_derive_nothing_per_job(spec):
    """Params, slice spans and blur kernels are read from attributes."""
    rt = ThreadedRuntime(make_program(spec(), name="derive"),
                         default_registry(), nodes=1, max_iterations=4)
    calls: collections.Counter[str] = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in DERIVATIONS:
            calls[DERIVATIONS[frame.f_code]] += 1
        elif event == "c_call" and arg is filters.gaussian_kernel_1d:
            calls["gaussian_kernel_1d"] += 1

    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
    assert result.completed_iterations == 4
    assert calls == {}, dict(calls)

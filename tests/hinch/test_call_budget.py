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
from repro.graph.taskgraph import TaskGraph
from repro.hinch import ThreadedRuntime
from repro.hinch.component import Component, JobContext, row_span
from repro.hinch.engine import NodePlan
from repro.hinch.scheduler import DataflowScheduler
from repro.hinch.stream import LockedStream, Stream

PACKAGE = str(Path(repro.__file__).parent) + "/"

#: hinch-owned profile events per job.  Measured 6.5 on CPython 3.11 for
#: this pipeline at nodes=1, where jobs run inline in FIFO batches,
#: streams take no lock, a port access is one frame, a stream recycles
#: its own sliced buffers, an iteration's slots are one frame of the
#: store, retired in one step, and the scheduler's readiness lives in
#: per-node tables (9.2 while every iteration kept a set of its issued
#: nodes and the loop popped a deque per job; 11.1 while each stream kept
#: its own slots and retiring an
#: iteration released them stream by stream; 12.9 while a plane pool
#: acquired and released the sliced buffers; 15.1 while src+a
#: and b+c ran as grouped two-step jobs; with those groups, 18.8 with a
#: ``Stream`` method behind every access, job byte counters and a
#: ``Job.__init__`` per ready job;
#: 21.7 with a lock per stream access; 31.4 with a worker thread, the job
#: queue and a lock per completion; 67.9 before node plans, which also
#: read the clock twice per job); the ~50 % head-room covers what 3.10
#: and 3.12 count differently (method-descriptor calls) — not a
#: ``JobContext`` rebuilt per job, a queue hop or a stream lock per job.
BUDGET = 10
ITERATIONS = 40


#: a plane of any geometry, passed through unchanged: every stream of the
#: pipeline solves to the source's record, so the sliced stream has a
#: buffer plan
PLANE = "kind=plane shape=?h,?w dtype=?T"


class Source(Component):
    ports = PortSpec(outputs=("output",),
                     formats={"output": "kind=plane shape=6,4 dtype=uint8"})

    def __init__(self, instance):
        super().__init__(instance)
        self.record = np.zeros((6, 4), dtype=np.uint8)

    def run(self, job: JobContext) -> None:
        job.write("output", self.record)


class Forward(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",),
                     formats={"input": PLANE, "output": PLANE})

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))


class SlicedForward(Component):
    """Every copy maps the shared buffer; none computes anything."""

    ports = PortSpec(inputs=("input",), outputs=("output",),
                     formats={"input": PLANE, "output": PLANE},
                     buffers=("output",))

    def run(self, job: JobContext) -> None:
        job.read("input")
        job.buffer("output")


class Sink(Component):
    ports = PortSpec(inputs=("input",), formats={"input": PLANE})

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


#: hinch-owned profile events of one iteration's three ``job.buffer``
#: requests on CPython 3.11, once the pipeline is full (the first copy of
#: each of the first ``pipeline_depth`` iterations allocates afresh, and
#: each context binds its port once).  At nodes=1: the first copy's
#: request frame, its ``Stream.ensure_buffer`` and the spare list's
#: ``pop`` (3), and one frame for each later copy, which finds the buffer
#: in the iteration's frame (1 + 1); the parent's restated geometry and
#: its comparisons cost no profile event there, so it read 5 too.  At
#: nodes=2 every request enters the ``LockedStream`` (13); the parent's
#: later copies each also paid an ``isinstance`` before comparing their
#: request with the slot, 15 in all.
BUFFER_EVENTS = {1: 5, 2: 13}


@pytest.mark.parametrize("nodes", sorted(BUFFER_EVENTS))
def test_a_buffer_request_allocates_the_plan_without_a_check(nodes):
    rt = _pipeline(nodes)
    depth = rt.scheduler.pipeline_depth
    buffer = JobContext.buffer.__code__
    events = collections.Counter()
    #: thread id -> the buffer request frame it is inside
    inside: dict[int, object] = {}

    def profile(frame, event, arg):
        thread = threading.get_ident()
        if thread not in inside:
            if (event == "call" and frame.f_code is buffer
                    and frame.f_locals["self"].iteration >= depth):
                inside[thread] = frame
                events[thread] += 1
        elif event == "return" and frame is inside[thread]:
            del inside[thread]
        elif event in ("call", "c_call"):
            events[thread] += 1

    gc.collect()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert result.completed_iterations == ITERATIONS
    per_iteration = sum(events.values()) / (ITERATIONS - depth)
    assert per_iteration <= BUFFER_EVENTS[nodes], (
        f"{per_iteration:.2f} events per iteration's three buffer "
        f"requests (pinned at {BUFFER_EVENTS[nodes]})")


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


def _managed(nodes: int = 1) -> ThreadedRuntime:
    """src -> [manager m: option opt: a] -> snk, and no event ever sent."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "s0"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("flip", "toggle", option="opt")
        with main.option("opt", enabled=True, bypass=[("s0", "s1")]):
            main.component("a", "forward",
                           streams={"input": "s0", "output": "s1"})
    main.component("snk", "sink", streams={"input": "s1"})
    return ThreadedRuntime(
        expand(b.build(), PORTS), REGISTRY, nodes=nodes, pipeline_depth=5,
        max_iterations=ITERATIONS,
    )


#: hinch-owned profile events per manager job at nodes=1 on CPython
#: 3.11: the poll's frame (1) and its bound queue's locked empty drain
#: (2).  A wrapper frame or a coordinator lock around the inline manager
#: step adds one (7 while the loop popped a deque per job and every poll
#: looked its queue up in the broker, under the broker's lock).
MANAGER_JOB_EVENTS = 3


def _events_per_job(rt: ThreadedRuntime) -> dict[str, collections.Counter]:
    """Run ``rt``, charging every profile event to the job it belongs to.

    A job's events are those since the previous completion returned, up
    to its own ``scheduler.complete`` call (the ready-queue pop and the
    node's steps); the completion's own events are the scheduler's and
    are not charged.  Returns node kind -> owning module -> events.
    Every plan is compiled and the manager's queue created beforehand,
    so what is charged is the steady state.
    """
    for n in rt.pg.graph:
        rt.node_plans[n.node_id]
    rt.broker.queue("ui")
    complete = type(rt.scheduler).complete.__code__
    node = rt.pg.graph.node
    window: collections.Counter[str] = collections.Counter()
    charged: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    inside = [None]

    def profile(frame, event, arg):
        if inside[0] is not None:
            if event == "return" and frame is inside[0]:
                inside[0] = None
            return
        if event == "call" and frame.f_code is complete:
            charged[node(frame.f_locals["job"].node_id).kind].update(window)
            window.clear()
            inside[0] = frame
        elif event in ("call", "c_call"):
            window[_owner(frame)] += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
    assert result.completed_iterations == ITERATIONS
    assert result.reconfig_count == 0
    return charged


def test_a_manager_job_is_one_bare_step():
    """At nodes=1 a manager job is its plan's one step, ``poll``, called
    straight from the inline loop: no wrapper frame, no lock."""
    _managed().run()  # warm-up
    charged = _events_per_job(_managed())
    for phase in ("manager_enter", "manager_exit"):
        owners = charged[phase]
        hinch = sum(n for owner, n in owners.items()
                    if owner.startswith("hinch/"))
        assert hinch / ITERATIONS <= MANAGER_JOB_EVENTS, (
            f"{phase}: {hinch / ITERATIONS:.1f} hinch-owned events per job "
            f"(pinned at {MANAGER_JOB_EVENTS}): {dict(owners)}"
        )


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


#: profile events inside one Blur-35 ``DataflowScheduler._splice`` on
#: CPython 3.11, every owner, once both configurations, the scheduler's
#: tables of both graphs and the plans' kept node sets exist: 38 measured
#: (the scheduler looks its tables up, the coordinator its configuration,
#: and the five kept nodes' plans are carried over).  65 while every
#: splice re-derived the successor lists and in-degrees and dropped
#: every plan.
SPLICE_EVENTS = 48


def _blur35(iterations: int) -> ThreadedRuntime:
    spec = build_blur(reconfigurable=True, period=6, width=48, height=36,
                      slices=3)
    return ThreadedRuntime(make_program(spec, name="blur35"),
                           default_registry(), nodes=1,
                           max_iterations=iterations)


def test_a_splice_installs_what_its_configuration_compiled():
    """A steady Blur-35 splice derives no scheduler table, and only the
    two nodes it swaps (the h/v pair of the other kernel) compile plans."""
    _blur35(48).run()  # warm-up
    rt = _blur35(48)
    splice = DataflowScheduler._splice.__code__
    compile_plan = NodePlan.__init__.__code__
    successors = TaskGraph.successors.__code__
    #: per splice: the profile events inside it, successors calls among them
    events: list[int] = []
    successor_calls: list[int] = []
    #: node ids compiled before the first splice, then after each one
    compiled: list[set[str]] = [set()]
    inside = [None]

    def profile(frame, event, arg):
        if inside[0] is None:
            if event == "call" and frame.f_code is splice:
                inside[0] = frame
                events.append(0)
                successor_calls.append(0)
                compiled.append(set())
            elif event == "call" and frame.f_code is compile_plan:
                compiled[-1].add(frame.f_locals["node"].node_id)
        elif event == "return" and frame is inside[0]:
            inside[0] = None
        elif event in ("call", "c_call"):
            events[-1] += 1
            successor_calls[-1] += (event == "call"
                                    and frame.f_code is successors)

    gc.collect()
    sys.setprofile(profile)
    try:
        result = rt.run()
    finally:
        sys.setprofile(None)
    assert result.completed_iterations == 48
    log = rt.reconfig_log
    assert len(log) == len(events) >= 6
    # the first splice builds blur5's configuration, the second works
    # out the kept nodes from blur5 back to blur3
    assert max(events[2:]) <= SPLICE_EVENTS, events
    assert successor_calls[1:] == [0] * (len(events) - 1), successor_calls
    for (resume, states), nodes in zip(log, compiled[1:]):
        if resume < result.completed_iterations:
            size = 5 if states["blur5"] else 3
            assert nodes == {f"h{size}[0]", f"v{size}[0]"}, (resume, nodes)

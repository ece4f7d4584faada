"""End-to-end tests of the threaded Hinch runtime."""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps import build_audio, build_blur, make_program
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.errors import ComponentError, SchedulingError, StreamError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.spacecake import SimRuntime

from tests.hinch.helpers import (
    PORTS, REGISTRY, LifecycleProbe, shm_entries, sleep_app,
)


def run_app(builder: AppBuilder, *, nodes=1, depth=5, iters=8, trace=False,
            option_states=None):
    program = expand(builder.build(), PORTS)
    rt = ThreadedRuntime(
        program,
        REGISTRY,
        nodes=nodes,
        pipeline_depth=depth,
        max_iterations=iters,
        trace=trace,
        option_states=option_states,
    )
    return rt, rt.run()


def linear_app() -> AppBuilder:
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"}, params={"base": 10})
    main.component("dbl", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    return b


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("depth", [1, 3, 5])
def test_linear_pipeline_results(nodes, depth):
    rt, result = run_app(linear_app(), nodes=nodes, depth=depth, iters=10)
    assert result.completed_iterations == 10
    collector = result.components["snk"]
    assert collector.ordered() == [(10 + k) * 2 for k in range(10)]


def test_stream_slots_released():
    rt, result = run_app(linear_app(), nodes=2, depth=3, iters=20)
    assert rt.streams.total_live_slots() == 0


def test_task_parallel_branches():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    with main.parallel("task"):
        with main.parblock():
            main.component("x", "doubler", streams={"input": "a", "output": "xa"})
        with main.parblock():
            main.component("y", "addconst", streams={"input": "a", "output": "ya"},
                           params={"k": 5})
    main.component("sum", "adder", streams={"a": "xa", "b": "ya", "output": "out"})
    main.component("snk", "collector", streams={"input": "out"})
    rt, result = run_app(b, nodes=3, iters=6)
    assert result.components["snk"].ordered() == [2 * k + k + 5 for k in range(6)]


def test_slice_parallel_assembles_frame():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "array_source", streams={"output": "raw"},
                   params={"size": 64})
    with main.parallel("slice", n=4):
        main.component("sc", "slice_scaler",
                       streams={"input": "raw", "output": "scaled"},
                       params={"factor": 3})
    main.component("snk", "collector", streams={"input": "scaled"})
    rt, result = run_app(b, nodes=4, iters=5)
    frames = result.components["snk"].ordered()
    for k, frame in enumerate(frames):
        assert np.allclose(frame, 3.0 * k)


def test_crossdep_halo_computation():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "array_source", streams={"output": "raw"},
                   params={"size": 32})
    with main.parallel("crossdep", n=4):
        with main.parblock():
            main.component("h", "slice_scaler",
                           streams={"input": "raw", "output": "mid"},
                           params={"factor": 1})
        with main.parblock():
            main.component("v", "halo_smoother",
                           streams={"input": "mid", "output": "out"})
    main.component("snk", "collector", streams={"input": "out"})
    rt, result = run_app(b, nodes=4, iters=4)
    frames = result.components["snk"].ordered()
    # source emits constant arrays, so smoothing is the identity
    for k, frame in enumerate(frames):
        assert np.allclose(frame, float(k))


@pytest.mark.parametrize("runtime_cls, width", [
    pytest.param(ThreadedRuntime, "nodes", id="threaded"),
    pytest.param(ProcessRuntime, "workers", id="process"),
])
def test_blocking_kernels_overlap_across_workers(runtime_cls, width):
    """Blocking kernels overlap on any host: 4 workers must beat 1 by >= 2x.

    ``time.sleep`` releases the GIL and occupies no core, so a flat curve
    here means the runtime serialises dispatch.  The rows compare traced
    makespans, first job start to last job end: a process run's
    ``elapsed_seconds`` also holds forking and joining its workers, which
    on a small host can cost as much as the jobs save.  Every worker
    stamps its jobs with ``perf_counter``, one clock for all processes.
    """
    program = expand(sleep_app(slices=4, sleep_ms=20.0).build(), PORTS)
    one, four = (
        runtime_cls(program, REGISTRY, pipeline_depth=4, max_iterations=5,
                    trace=True, **{width: n}).run()
        for n in (1, 4)
    )
    assert one.completed_iterations == four.completed_iterations == 5
    assert four.trace.makespan() * 2.0 <= one.trace.makespan()


@pytest.mark.parametrize("nodes", [1, 2])
def test_source_request_stop_truncates_run(nodes):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"},
                   params={"limit": 3})
    main.component("snk", "collector", streams={"input": "a"})
    rt, result = run_app(b, nodes=nodes, depth=1, iters=100)
    # limit=3: iterations 0..3 run (stop requested during iteration 3)
    assert result.completed_iterations == 4


def test_read_before_write_surfaces_as_error():
    # A sink whose input stream's writer runs in parallel (not ordered) —
    # build_graph's sanity check catches it; bypass that check by writing
    # directly against the stream store instead.
    from repro.hinch.stream import Stream

    s = Stream("x")
    with pytest.raises(StreamError):
        s.get(3)


def test_trace_records_all_jobs():
    rt, result = run_app(linear_app(), nodes=2, iters=6, trace=True)
    events = result.trace.events
    task_events = [e for e in events if e.kind == "task"]
    assert len(task_events) == 3 * 6
    assert result.trace.makespan() > 0
    assert 0 < result.trace.utilization(2) <= 1.0


def test_invalid_nodes_rejected():
    program = expand(linear_app().build(), PORTS)
    with pytest.raises(SchedulingError):
        ThreadedRuntime(program, REGISTRY, nodes=0, max_iterations=1)


@pytest.mark.parametrize("nodes", [1, 2])
def test_component_exception_propagates(nodes):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("dbl", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    program = expand(b.build(), PORTS)

    class FailingDoubler(REGISTRY["doubler"]):
        def run(self, job):
            if job.iteration == 2:
                raise RuntimeError("boom at iteration 2")
            super().run(job)

    registry = dict(REGISTRY)
    registry["doubler"] = FailingDoubler
    rt = ThreadedRuntime(program, registry, nodes=nodes, max_iterations=10)
    with pytest.raises(RuntimeError, match="boom at iteration 2"):
        rt.run()


def test_an_interrupted_run_stops_its_workers():
    """Ctrl-C while ``run()`` waits for its worker threads: each finishes
    the job it holds and stops before ``run()`` raises, so nothing keeps
    computing behind the caller's back."""
    spec = build_blur(reconfigurable=True, period=6, width=48, height=36,
                      slices=3)
    rt = ThreadedRuntime(make_program(spec, name="blur35"),
                         default_registry(), nodes=2, max_iterations=3000)
    main = threading.main_thread().ident

    def interrupt():
        while rt.scheduler.completed_iterations < 20:
            time.sleep(0.002)
        # what Ctrl-C does: SIGINT to the main thread, which wakes its
        # join() (``_thread.interrupt_main`` would wait for the join)
        signal.pthread_kill(main, signal.SIGINT)

    threading.Thread(target=interrupt, daemon=True).start()
    with pytest.raises(KeyboardInterrupt):
        rt.run()
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("hinch-worker-")] == []
    done = rt.scheduler.completed_iterations
    assert done < 3000
    time.sleep(0.2)
    assert rt.scheduler.completed_iterations == done


@pytest.mark.parametrize("nodes", [1, 2])
def test_a_pre_create_that_raises_ends_the_run_unspliced(nodes):
    """Failure cell: a component constructor raises while a manager
    pre-creates the option it is enabling (Blur-35's 5x5 kernel).  The
    error leaves ``run()`` promptly, no worker thread is left behind and
    no splice is applied: the run ends in the 3x3 configuration."""
    registry = default_registry()

    class Unbuildable(registry["blur_h_field"]):
        def __init__(self, instance):
            if instance.params["size"] == 5:
                raise ComponentError(f"{instance.instance_id}: no 5x5 kernel")
            super().__init__(instance)

    spec = build_blur(reconfigurable=True, period=6, width=48, height=36,
                      slices=3)
    rt = ThreadedRuntime(make_program(spec, name="blur35"),
                         {**registry, "blur_h_field": Unbuildable},
                         nodes=nodes, max_iterations=48)
    live = dict(rt.host.live)
    start = time.perf_counter()
    with pytest.raises(ComponentError, match=r"h5\[0\]: no 5x5 kernel"):
        rt.run()
    assert time.perf_counter() - start < 5.0
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("hinch-worker-")] == []
    assert rt.reconfig_log == [] and rt.scheduler.reconfig_count == 0
    assert rt.pg.option_states == {"blur3": True, "blur5": False}
    assert rt.host.live == live


def test_one_node_runs_on_the_calling_thread():
    """``nodes=1`` starts no thread: every job runs on the caller's."""
    caller = threading.current_thread()
    assert caller is threading.main_thread()
    baseline = threading.active_count()
    seen: list[tuple[threading.Thread, int]] = []

    class Doubler(REGISTRY["doubler"]):
        def run(self, job):
            seen.append((threading.current_thread(), threading.active_count()))
            super().run(job)

    registry = {**REGISTRY, "doubler": Doubler}
    rt = ThreadedRuntime(expand(linear_app().build(), PORTS), registry,
                         nodes=1, pipeline_depth=3, max_iterations=6)
    result = rt.run()
    assert result.components["snk"].ordered() == [(10 + k) * 2 for k in range(6)]
    assert len(seen) == 6
    assert all(thread is caller for thread, _ in seen)
    assert max(count for _, count in seen) == baseline
    assert threading.active_count() == baseline


@pytest.mark.parametrize(
    "make",
    [
        lambda p: ThreadedRuntime(p, REGISTRY, nodes=1, max_iterations=4),
        lambda p: ProcessRuntime(p, REGISTRY, workers=1, max_iterations=4),
        lambda p: ProcessRuntime(p, REGISTRY, workers=2, max_iterations=4),
    ],
    ids=["threaded-1", "process-1", "process-2"],
)
def test_one_node_stall_raises_instead_of_returning_short(make):
    """Single-threaded loops (the inline executor, the process
    dispatcher) raise on a stalled dataflow instead of returning short or
    waiting forever, and the process backend still shuts down cleanly."""
    segments = shm_entries()
    rt = make(expand(linear_app().build(), PORTS))
    real = rt.scheduler.complete

    def losing(job, ready=None):
        # a scheduler that loses every job made ready after the first ones
        real(job, [])
        return [] if ready is None else ready

    rt.scheduler.complete = losing
    # ... including those a process lease would speculate
    rt.scheduler.extract_followons = lambda *args, **kwargs: []
    with pytest.raises(SchedulingError, match="stalled"):
        rt.run()
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("hinch-proc-worker")]
    assert shm_entries() <= segments


# -- reconfiguration end-to-end ----------------------------------------------------


def reconfig_app(period=4) -> AppBuilder:
    """Pipeline with an optional +100 stage toggled every `period` iters."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("tick", "event_sender",
                   streams={"input": "a", "output": "b"},
                   params={"queue": "ui", "period": period, "event": "flip"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("flip", "toggle", option="extra")
        with main.option("extra", enabled=False, bypass=[("b", "c")]):
            main.component("plus", "lifecycle_probe",
                           streams={"input": "b", "output": "c"})
    main.component("snk", "collector", streams={"input": "c"})
    return b


@pytest.mark.parametrize("nodes", [1, 3])
def test_toggle_option_changes_data_path(nodes):
    LifecycleProbe.instances.clear()
    rt, result = run_app(reconfig_app(period=4), nodes=nodes, depth=2, iters=16)
    assert result.completed_iterations == 16
    assert result.reconfig_count >= 2  # toggled on and off at least once
    values = result.components["snk"].ordered()
    assert len(values) == 16
    # Early iterations (before the first drain completes) pass through;
    # once 'extra' is live its +100 shows up; later it is removed again.
    assert values[0] == 0
    assert any(v >= 100 for v in values)
    assert any(v < 100 for v in values[8:])
    # value is always either k or k+100
    for k, v in enumerate(values):
        assert v in (k, k + 100)


def test_option_components_created_and_torn_down():
    LifecycleProbe.instances.clear()
    rt, result = run_app(reconfig_app(period=3), nodes=2, depth=2, iters=18)
    probes = LifecycleProbe.instances
    assert probes, "option component was never created"
    assert all(p.setup_count == 1 for p in probes)
    # every disabled splice tears the probe down
    torn_down = [p for p in probes if p.teardown_count == 1]
    assert torn_down
    # the number of create/teardown cycles matches the reconfig count scale
    assert len(probes) >= result.reconfig_count / 2


def test_events_ignored_when_no_handler():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("tick", "event_sender",
                   streams={"input": "a", "output": "b"},
                   params={"queue": "ui", "period": 2, "event": "unknown_event"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("flip", "toggle", option="o")
        with main.option("o", enabled=False, bypass=[("b", "c")]):
            main.component("x", "doubler", streams={"input": "b", "output": "c"})
    main.component("snk", "collector", streams={"input": "c"})
    rt, result = run_app(b, nodes=2, iters=8)
    assert result.reconfig_count == 0
    assert result.events_ignored > 0


def test_forward_handler_routes_events():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("tick", "event_sender",
                   streams={"input": "a", "output": "b"},
                   params={"queue": "front", "period": 2, "event": "flip"})
    with main.manager("router", queue="front") as r:
        r.on("flip", "forward", target="back")
        main.component("id1", "addconst", streams={"input": "b", "output": "c"},
                       params={"k": 0})
    with main.manager("m", queue="back") as mgr:
        mgr.on("flip", "enable", option="extra")
        with main.option("extra", enabled=False, bypass=[("c", "d")]):
            main.component("plus", "addconst",
                           streams={"input": "c", "output": "d"},
                           params={"k": 100})
    main.component("snk", "collector", streams={"input": "d"})
    rt, result = run_app(b, nodes=2, iters=12)
    assert result.reconfig_count == 1  # enabled once; further enables are no-ops
    values = result.components["snk"].ordered()
    assert values[-1] == 11 + 100


def test_reconfigure_request_reaches_members():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("tick", "event_sender",
                   streams={"input": "a", "output": "b"},
                   params={"queue": "ui", "period": 3, "event": "move"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("move", "reconfigure", request="pos=5,5")
        main.component("r", "reconfigurable", streams={"input": "b", "output": "c"})
    main.component("snk", "collector", streams={"input": "c"})
    rt, result = run_app(b, nodes=2, iters=9)
    r = result.components["r"]
    assert "pos=5,5" in r.requests
    assert r.params["pos"] == "5,5"
    assert result.reconfig_count == 0  # requests do not rebuild the graph


OLD_POS, NEW_POS = (2, 3), (30, 40)
MOVE_AT, MOVE_FRAMES = 3, 7


def _moving_pip(position: tuple[int, int], *, move: bool) -> AppBuilder:
    """One-plane PiP, 4-way sliced; with ``move`` a timer sends the
    blenders ``pos=30,40`` in iteration MOVE_AT.  The new overlay rows
    (30..42) fall in other slices than the old ones (2..14), so a copy
    still blending at its old position shows in the frame."""
    w, h, factor = 64, 48, 4
    geometry = {"width": w, "height": h}
    b = AppBuilder()
    main = b.procedure("main")
    main.component("bg", "luma_source", streams={"output": "bg"},
                   params={**geometry, "seed": 1})
    main.component("pip", "luma_source", streams={"output": "pip"},
                   params={**geometry, "seed": 2})
    with main.parallel("slice", n=4):
        main.component("scale", "downscale_field",
                       streams={"input": "pip", "output": "small"},
                       params={**geometry, "factor": factor})
    if move:
        main.component("tick", "timer", params={
            "queue": "ui", "period": MOVE_AT + 1, "event": "move"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("move", "reconfigure",
               request="pos={},{}".format(*NEW_POS))
        with main.parallel("slice", n=4):
            main.component(
                "blend", "blend_field",
                streams={"background": "bg", "overlay": "small",
                         "output": "out"},
                params={**geometry, "pos_row": position[0],
                        "pos_col": position[1],
                        "overlay_width": w // factor,
                        "overlay_height": h // factor})
    main.component("sink", "plane_sink", streams={"input": "out"},
                   params={**geometry, "collect": True})
    return b


@pytest.mark.parametrize("runtime_cls, kwargs", [
    pytest.param(ThreadedRuntime, {"nodes": 1}, id="threaded-1"),
    pytest.param(ThreadedRuntime, {"nodes": 2}, id="threaded-2"),
    pytest.param(ProcessRuntime, {"workers": 2}, id="process-2"),
])
def test_mid_run_pos_request_moves_every_blender_copy(runtime_cls, kwargs):
    """A ``pos=r,c`` request re-derives each copy's position: frames
    before the request's iteration equal a static run at the old
    position, frames from it on a static run at the new one.  Depth 1
    puts the request between two iterations on every executor."""
    from repro.components.registry import default_ports

    def planes(builder: AppBuilder) -> list[np.ndarray]:
        program = expand(builder.build(), default_ports())
        rt = runtime_cls(program, default_registry(), pipeline_depth=1,
                         max_iterations=MOVE_FRAMES, **kwargs)
        return rt.run().components["sink"].ordered_planes()

    moved = planes(_moving_pip(OLD_POS, move=True))
    old = planes(_moving_pip(OLD_POS, move=False))
    new = planes(_moving_pip(NEW_POS, move=False))
    assert len(moved) == MOVE_FRAMES
    assert not np.array_equal(old[MOVE_AT], new[MOVE_AT])
    for k, plane in enumerate(moved):
        expected = old[k] if k < MOVE_AT else new[k]
        assert np.array_equal(plane, expected), f"frame {k}"


def test_external_event_injection():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("on", "enable", option="extra")
        with main.option("extra", enabled=False, bypass=[("a", "c")]):
            main.component("plus", "addconst",
                           streams={"input": "a", "output": "c"},
                           params={"k": 1000})
    main.component("snk", "collector", streams={"input": "c"})
    program = expand(b.build(), PORTS)
    rt = ThreadedRuntime(program, REGISTRY, nodes=2, pipeline_depth=2,
                         max_iterations=10)
    rt.post_event("ui", "on")  # user presses a key before the run
    result = rt.run()
    assert result.reconfig_count == 1
    assert result.components["snk"].ordered()[-1] == 9 + 1000


def test_initial_option_states_override():
    rt, result = run_app(reconfig_app(period=1000), nodes=1, iters=4,
                         option_states={"extra": True})
    values = result.components["snk"].ordered()
    assert values == [100, 101, 102, 103]


# -- nodes=1 job order -------------------------------------------------------------


def _one_node(spec, iters, **kwargs):
    rt = ThreadedRuntime(make_program(spec, name="app"), default_registry(),
                         nodes=1, pipeline_depth=5, max_iterations=iters,
                         **kwargs)
    return rt.reconfig_log, rt.run().components["sink"].ordered_planes()


def _variant_labels(outputs, variants: dict[str, list]) -> str:
    """Per output frame, the label of the one static variant it equals."""
    labels = ""
    for k, out in enumerate(outputs):
        hits = [label for label, frames in variants.items()
                if np.array_equal(out, frames[k])]
        assert len(hits) == 1, f"frame {k} matches {hits}"
        labels += hits[0]
    return labels


def test_one_node_fifo_order_pins_blur35_splices():
    """Timer-driven splices land where FIFO job order puts them: these
    iterations and kernels are the ones one worker thread popping the
    central queue produced, and running inline must not move them."""
    kw = dict(width=48, height=36, slices=3, collect=True)
    log, out = _one_node(build_blur(reconfigurable=True, period=6, **kw), 24)
    assert log == [
        (5, {"blur3": False, "blur5": True}),
        (10, {"blur3": True, "blur5": False}),
        (16, {"blur3": False, "blur5": True}),
        (22, {"blur3": True, "blur5": False}),
    ]
    variants = {"3": _one_node(build_blur(3, **kw), 24)[1],
                "5": _one_node(build_blur(5, **kw), 24)[1]}
    assert _variant_labels(out, variants) == "333335555533333355555533"


def test_one_node_fifo_order_pins_audio_bypass_splices():
    kw = dict(channels=8, block=64, slices=2, collect=True)
    log, out = _one_node(build_audio(reconfigurable=True, period=2, **kw), 16)
    # a toggle every 2 records outpaces the depth-5 drain: until 14 each
    # request is undone by the next before the pipeline empties, and the
    # withdrawn pair splices nothing
    assert log == [
        (14, {"vib_branch": False}),
        (16, {"vib_branch": True}),
    ]
    variants = {
        "F": _one_node(build_audio(**kw), 16)[1],  # fused
        "M": _one_node(build_audio(reconfigurable=True, period=10**6, **kw),
                       16, option_states={"vib_branch": False})[1],  # mic only
    }
    assert _variant_labels(out, variants) == "FFFFFFFFFFFFFFMM"


# -- a finished runtime is freed at once ------------------------------------

REG = default_registry()


@pytest.mark.parametrize("make", [
    pytest.param(lambda p: ThreadedRuntime(p, REG, nodes=1, max_iterations=6),
                 id="threaded-1"),
    pytest.param(lambda p: ThreadedRuntime(p, REG, nodes=2, max_iterations=6),
                 id="threaded-2"),
    pytest.param(lambda p: ProcessRuntime(p, REG, workers=2, max_iterations=6),
                 id="process-2"),
    pytest.param(lambda p: SimRuntime(p, REG, nodes=2, max_iterations=6,
                                      execute=True), id="sim-2"),
])
def test_a_dropped_runtime_is_freed_without_the_cyclic_collector(make):
    """Nothing a runtime owns refers back to it strongly: with the
    collector off, dropping it after ``run()`` frees it, its streams
    (and their spare planes) and its sink's frames.  What a finished run
    is read by stays readable until then."""
    import gc
    import weakref

    program = make_program(
        build_blur(reconfigurable=True, period=2, width=48, height=36,
                   slices=3, frames=2, collect=True), name="blur35")
    gc.collect()
    gc.disable()
    try:
        rt = make(program)
        result = rt.run()
        assert result.reconfig_count >= 1
        assert rt.scheduler.completed_iterations == 6 and rt.pg.graph
        refs = [weakref.ref(rt), weakref.ref(rt.streams),
                weakref.ref(result.components["sink"])]
        del rt, result
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()

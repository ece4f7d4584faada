"""ProcessRuntime equivalence: bit-identical to the threaded backend.

The process backend moves kernel execution to worker processes but keeps
every semantic decision (readiness, load balancing, events,
reconfiguration) on the dispatcher, so for each application the collected
output must match the threaded runtime exactly — including across live
reconfigurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.errors import SchedulingError
from repro.hinch import ProcessRuntime, ThreadedRuntime

REG = default_registry()


def run_threaded(spec, *, iters, nodes=2, depth=2, name="app"):
    program = make_program(spec, name=name)
    return ThreadedRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                           max_iterations=iters).run()


def run_process(spec, *, iters, workers=2, depth=2, name="app"):
    program = make_program(spec, name=name)
    return ProcessRuntime(program, REG, workers=workers, pipeline_depth=depth,
                          max_iterations=iters).run()


# -- bit-identical applications ---------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_pip_identical_frames(workers):
    spec = build_pip(1, width=64, height=48, factor=4, slices=2, frames=2,
                     collect=True)
    thr = run_threaded(spec, iters=4)
    prc = run_process(spec, iters=4, workers=workers)
    a = thr.components["sink"].ordered_frames()
    b = prc.components["sink"].ordered_frames()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert x == y


@pytest.mark.parametrize("workers", [1, 3])
def test_blur5_identical_planes(workers):
    spec = build_blur(5, width=48, height=36, slices=3, frames=2,
                      collect=True)
    thr = run_threaded(spec, iters=4)
    prc = run_process(spec, iters=4, workers=workers)
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_jpip_identical_frames():
    spec = build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, collect=True)
    thr = run_threaded(spec, iters=3)
    prc = run_process(spec, iters=3, workers=2)
    a = thr.components["sink"].ordered_frames()
    b = prc.components["sink"].ordered_frames()
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        assert x == y


def test_stream_stats_match_threaded():
    """The dispatcher's one-get-per-(copy, port) accounting reproduces the
    threaded backend's stream counters exactly."""
    spec = build_blur(5, width=48, height=36, slices=3, frames=2,
                      collect=True)
    thr = run_threaded(spec, iters=4)
    prc = run_process(spec, iters=4, workers=2)
    assert prc.stream_stats == thr.stream_stats


# -- live reconfiguration ---------------------------------------------------


def test_reconfigurable_blur_matches_threaded_when_sequential():
    """workers=1 / depth=1 is fully deterministic (the dispatcher hands
    the FIFO head to the single worker, control jobs run inline in pop
    order), so the reconfiguration points and the output must equal the
    threaded backend at nodes=1."""
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    program = make_program(spec, name="blur35")
    thr_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=9)
    thr = thr_rt.run()
    prc_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=1,
                            max_iterations=9)
    prc = prc_rt.run()
    assert thr_rt.reconfig_log  # at least one live reconfiguration
    assert prc_rt.reconfig_log == thr_rt.reconfig_log
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_preinjected_event_reconfigures_identically_at_any_width(workers):
    """An event posted before run() is handled at the first manager
    invocation and spliced at a fixed quiescence point — deterministic
    regardless of how many workers race on the task jobs."""
    spec = build_pip(2, width=64, height=48, factor=4, slices=2, frames=2,
                     reconfigurable=True, period=100, collect=True)
    program = make_program(spec, name="pip2")
    thr_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=2,
                             max_iterations=6)
    thr_rt.post_event("ui", "toggle_pip")
    thr = thr_rt.run()
    prc_rt = ProcessRuntime(program, REG, workers=workers, pipeline_depth=2,
                            max_iterations=6)
    prc_rt.post_event("ui", "toggle_pip")
    prc = prc_rt.run()
    assert thr_rt.reconfig_log  # the toggle produced a live reconfiguration
    assert prc_rt.reconfig_log == thr_rt.reconfig_log
    a = thr.components["sink"].ordered_frames()
    b = prc.components["sink"].ordered_frames()
    assert len(a) == len(b) == 6
    for x, y in zip(a, b):
        assert x == y


# -- the zero-copy hot path -------------------------------------------------


def test_no_pixel_data_pickled_on_stream_hot_path():
    """Acceptance criterion: PiP streams nothing but ndarray planes, so
    stream transport must pickle nothing.  ``meta_pickled_bytes`` counts
    the (interned) control-pipe messages — pure coordination metadata —
    so it must stay flat when the frame area quadruples, while the
    out-of-band pixel bytes scale with it.  (collect=False: a collecting
    sink checkpoints whole frames, which legitimately ride — and are
    counted on — the control pipe.)"""
    small = run_process(
        build_pip(1, width=64, height=48, factor=4, slices=2, frames=2),
        iters=4, workers=2,
    ).pool_stats
    large = run_process(
        build_pip(1, width=128, height=96, factor=4, slices=2, frames=2),
        iters=4, workers=2,
    ).pool_stats
    for stats in (small, large):
        assert stats["plane_packs"] > 0
        assert stats["pickle_packs"] == 0
    assert large["oob_bytes"] == 4 * small["oob_bytes"]
    assert small["meta_pickled_bytes"] > 0  # leases/records are counted
    assert large["meta_pickled_bytes"] < 1.2 * small["meta_pickled_bytes"]


def test_jpip_pickles_only_scaffolding():
    """JPiP ships EncodedFrame objects (compressed bitstreams) via the
    pickle5 path; the metadata must stay tiny relative to the out-of-band
    payload — raw coefficient planes never hit pickle."""
    spec = build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, collect=True)
    prc = run_process(spec, iters=3, workers=2)
    stats = prc.pool_stats
    assert stats["oob_bytes"] > 0


def test_pool_planes_released_at_end_of_run():
    spec = build_blur(3, width=48, height=36, slices=3, frames=2)
    program = make_program(spec, name="blur")
    rt = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                        max_iterations=4)
    rt.run()
    # all slots were released as iterations completed; close() then
    # unlinked the segments
    assert rt.pool.total_planes == 0


# -- tracing ----------------------------------------------------------------


def test_trace_records_per_worker_occupancy():
    spec = build_blur(3, width=48, height=36, slices=3, frames=2)
    program = make_program(spec, name="blur")
    rt = ProcessRuntime(program, REG, workers=2, pipeline_depth=2,
                        max_iterations=4, trace=True)
    result = rt.run()
    busy = result.trace.per_worker_busy()
    # every worker did something; dispatcher control jobs appear as -1
    # only for apps with managers (plain blur has none)
    assert set(busy) <= {-1, 0, 1}
    assert any(w >= 0 for w in busy)
    assert all(v > 0 for v in busy.values())
    task_workers = {e.worker for e in result.trace.events if e.kind == "task"}
    assert task_workers and all(w >= 0 for w in task_workers)


# -- guard rails ------------------------------------------------------------


def test_workers_must_be_positive():
    spec = build_blur(3, width=48, height=36, slices=3, frames=1)
    program = make_program(spec, name="blur")
    with pytest.raises(SchedulingError):
        ProcessRuntime(program, REG, workers=0, max_iterations=1)


def test_zero_iterations_completes_immediately():
    spec = build_blur(3, width=48, height=36, slices=3, frames=1)
    program = make_program(spec, name="blur")
    result = ProcessRuntime(program, REG, workers=2,
                            max_iterations=0).run()
    assert result.completed_iterations == 0


def test_worker_exception_propagates():
    """A component crash in a worker surfaces in the dispatcher as the
    original exception, and shutdown still cleans up the pool."""
    from repro.hinch.component import Component

    class Exploding(Component):
        ports = REG["luma_source"].ports

        def run(self, job):
            raise RuntimeError("kernel exploded")

    registry = dict(REG)
    registry["luma_source"] = Exploding
    spec = build_blur(3, width=48, height=36, slices=3, frames=1)
    program = make_program(spec, name="blur")
    rt = ProcessRuntime(program, registry, workers=2, max_iterations=2)
    with pytest.raises(RuntimeError, match="kernel exploded"):
        rt.run()
    assert rt.pool.total_planes == 0


def test_worker_job_tables_do_not_outlive_the_job():
    """The worker's stream facade is persistent (node plans bind to it),
    but what a job unpacked or mapped must be dropped when the job ends:
    a view left behind pins its shared segment past ``close_attachments``
    (a ``BufferError`` from ``SharedMemory.__del__`` at worker exit)."""
    from repro.core import AppBuilder, expand
    from repro.hinch.engine import build_configuration
    from repro.hinch.worker import _Worker
    from tests.hinch.helpers import PORTS, REGISTRY

    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"}, params={"base": 3})
    main.component("snk", "collector", streams={"input": "a"})
    program = expand(b.build(), PORTS)
    pg = build_configuration(
        program, REGISTRY, None, group_chains=False, fuse=False,
        fuse_backend="numpy", parallel_headroom=None,
    ).pg
    worker = _Worker(None, program, REGISTRY, pg, False, 0)
    try:
        record = worker._run_job(0, "src", {}, (), None, None)
        shipped = record[2]
        assert list(shipped) == ["a"]
        facade = worker.streams
        assert facade.inputs is facade.values is facade.ensured is None
        # the next job starts from fresh tables, not the previous job's
        follow = worker._run_job(0, "snk", dict(shipped), (), None, None)
        assert follow[2] == {} and facade.values is None
        assert worker.host.live["snk"].ordered() == [3]
    finally:
        worker.pool.close_attachments()

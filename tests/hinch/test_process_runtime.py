"""ProcessRuntime equivalence: bit-identical to the threaded backend.

The process backend moves kernel execution to worker processes but keeps
every semantic decision (readiness, load balancing, events,
reconfiguration) on the dispatcher, so for each application the collected
output must match the threaded runtime exactly — including across live
reconfigurations.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.errors import SchedulingError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from tests.hinch.helpers import PORTS, REGISTRY

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


def _request_then_enable_program():
    """One manager: ``move`` re-parameterises its live members, ``on``
    enables an option whose component does not exist yet."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    with main.manager("m", queue="ui") as mgr:
        mgr.on("move", "reconfigure", request="k=7")
        mgr.on("on", "enable", option="extra")
        main.component("base", "addconst", streams={"input": "a", "output": "b"},
                       params={"k": 0})
        with main.option("extra", enabled=False, bypass=[("b", "c")]):
            main.component("plus", "addconst",
                           streams={"input": "b", "output": "c"},
                           params={"k": 100})
    main.component("snk", "collector", streams={"input": "c"})
    return expand(b.build(), PORTS)


@pytest.mark.parametrize(
    "make,respawns",
    [
        (lambda p: ThreadedRuntime(p, REGISTRY, nodes=2, pipeline_depth=2,
                                   max_iterations=8), False),
        (lambda p: ProcessRuntime(p, REGISTRY, workers=1, pipeline_depth=2,
                                  max_iterations=8), False),
        (lambda p: ProcessRuntime(p, REGISTRY, workers=2, pipeline_depth=2,
                                  max_iterations=8), False),
        # the kill lands after the splice: the fresh worker's mirrors
        # must replay "k=7" onto base only, never onto plus
        (lambda p: ProcessRuntime(p, REGISTRY, workers=1, pipeline_depth=2,
                                  max_iterations=8, faults="kill:12"), True),
    ],
    ids=["threaded-2", "process-1", "process-2", "process-1-respawn"],
)
def test_a_request_reaches_only_the_mirrors_that_existed(make, respawns):
    """A reconfigure request handled before an enable reaches ``base`` but
    not the ``plus`` the enable creates afterwards — on every backend, and
    through a worker respawned after the splice."""
    rt = make(_request_then_enable_program())
    rt.post_event("ui", "move")
    rt.post_event("ui", "on")
    result = rt.run()
    assert result.reconfig_count == 1
    kinds = [e["kind"] for e in result.fault_events]
    assert ("respawn" in kinds) is respawns
    assert result.components["snk"].ordered() == [
        k + 7 + (100 if k >= 2 else 0) for k in range(8)
    ]


# -- worker pool --------------------------------------------------------------


def test_workers_spawned_counts_forked_slots_only():
    """Every configured slot forks at start, whatever the host's cores."""
    frames = 6
    program = make_program(
        build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                   slices=4, frames=frames, collect=True),
        name="jpip1",
    )
    for workers in (1, 4):
        rt = ProcessRuntime(program, REG, workers=workers, pipeline_depth=4,
                            max_iterations=frames, trace=True)
        result = rt.run()
        assert result.workers_spawned == workers


# -- the control pipe --------------------------------------------------------


#: every message kind the control pipe carries, both directions
PROTOCOL = {"lease", "reconfigure", "splice", "rpc", "stop",
            "done", "rpc_alloc", "rpc_ensure", "bye", "error"}


def _documented_tags():
    """Message tags listed in :mod:`repro.hinch.worker`'s protocol bullets."""
    import repro.hinch.worker as worker

    doc = worker.__doc__
    start = doc.index("* dispatcher → worker:")
    section = doc[start:doc.index("\n\n", start)]
    return set(re.findall(r"``(\w+)``", section))


def test_control_pipe_carries_only_the_documented_messages(monkeypatch):
    """Every tag crossing a pipe, in both directions, is one the worker
    module documents, and together these runs use every one of them:
    JPiP allocates raw planes (pickled bitstreams), PiP-12 splices while
    a worker is killed mid-lease, a manager broadcasts a request, and a
    kernel error reports ``error``."""
    import repro.hinch.process as process

    seen: set[str] = set()
    send, recv = process.send_framed, process.recv_framed

    def recording_send(conn, msg, stats):
        seen.add(msg[0])
        send(conn, msg, stats)

    def recording_recv(conn):
        msg = recv(conn)
        seen.add(msg[0])
        return msg

    monkeypatch.setattr(process, "send_framed", recording_send)
    monkeypatch.setattr(process, "recv_framed", recording_recv)

    jpip = make_program(build_jpip(1, width=64, height=48, pip_height=48,
                                   factor=4, slices=3, frames=2), name="jpip")
    result = ProcessRuntime(jpip, REG, workers=2, pipeline_depth=2,
                            max_iterations=3).run()
    assert result.pool_stats["pickle_packs"] > 0

    pip12 = make_program(build_pip(2, width=64, height=48, factor=4, slices=2,
                                   frames=2, reconfigurable=True, period=3),
                         name="pip12")
    result = ProcessRuntime(pip12, REG, workers=2, pipeline_depth=2,
                            max_iterations=8, faults="kill:2").run()
    assert result.reconfig_count > 0
    assert "worker_failure" in {e["kind"] for e in result.fault_events}

    rt = ProcessRuntime(_request_then_enable_program(), REGISTRY, workers=2,
                        pipeline_depth=2, max_iterations=4)
    rt.post_event("ui", "move")
    rt.run()

    class Exploding(REG["luma_source"]):
        def run(self, job):
            raise RuntimeError("kernel exploded")

    blur = make_program(build_blur(3, width=48, height=36, slices=3, frames=2),
                        name="blur")
    with pytest.raises(RuntimeError, match="kernel exploded"):
        ProcessRuntime(blur, {**REG, "luma_source": Exploding}, workers=2,
                       max_iterations=2).run()

    assert _documented_tags() == PROTOCOL
    assert seen == PROTOCOL


# -- the zero-copy hot path -------------------------------------------------


def test_no_pixel_data_pickled_on_stream_hot_path():
    """Acceptance criterion: PiP streams nothing but ndarray planes, so
    stream transport must pickle nothing.  ``meta_pickled_bytes`` counts
    the control-pipe messages — pure coordination metadata — so it must
    stay flat when the frame area quadruples, while the out-of-band
    pixel bytes scale with it.  (collect=False: a collecting
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


@pytest.mark.parametrize("removed", [{"batch": 1}, {"batch": 8},
                                     {"fuse": False}],
                         ids=["batch=1", "batch=8", "fuse=False"])
def test_removed_batch_and_fuse_values_are_refused(removed):
    """Leases of four and the chain compiler always apply: ``batch=4``
    and ``fuse=True`` are still accepted, any other value is refused."""
    program = make_program(build_blur(3, width=48, height=36, slices=3,
                                      frames=1), name="blur")
    with pytest.raises(SchedulingError, match="removed"):
        ProcessRuntime(program, REG, max_iterations=1, **removed)
    ProcessRuntime(program, REG, max_iterations=1, batch=4,
                   fuse=True).pool.close()


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
    config = build_configuration(
        program, REGISTRY, None, group_chains=False)
    worker = _Worker(None, program, REGISTRY, 0, config, lambda states: config)
    try:
        record = worker._run_job(0, "src", {}, (), None, None)
        shipped = record[2]
        assert list(shipped) == ["a"]
        facade = worker.streams
        assert facade.inputs is facade.values is facade.ensured is None
        # the next job starts from fresh tables, not the previous job's
        follow = worker._run_job(0, "snk", dict(shipped), (), None, None)
        assert follow[2] == {} and facade.values is None
        assert follow[7] == {"snk": [(0, 3)]}  # the collector's checkpoint
    finally:
        worker.pool.close_attachments()

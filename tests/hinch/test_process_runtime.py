"""ProcessRuntime: the dispatcher, its control pipe and its workers.

The process backend moves kernel execution to worker processes but keeps
every semantic decision (readiness, load balancing, events,
reconfiguration) on the dispatcher, so for each application the collected
output must match the threaded runtime exactly — including across live
reconfigurations (``tests/test_conformance.py``'s check, on the rows
named here).  Here too: its accounting, its protocol and its failure
paths.
"""

from __future__ import annotations

import os
import re
import time

import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.errors import SchedulingError, WorkerFailure
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.jobqueue import Job
from repro.fuzz.runner import Row, differential
from tests.hinch.helpers import PORTS, REGISTRY, keep_copies, shm_entries
from tests.test_conformance import assert_conforms

REG = default_registry()


def blur_spec():
    return build_blur(3, width=48, height=36, slices=3, frames=2,
                      collect=True)


def run_threaded(spec, *, iters, nodes=2, depth=2, name="app"):
    program = make_program(spec, name=name)
    return ThreadedRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                           max_iterations=iters).run()


def run_process(spec, *, iters, workers=2, depth=2, name="app",
                registry=REG):
    program = make_program(spec, name=name)
    return ProcessRuntime(program, registry, workers=workers,
                          pipeline_depth=depth, max_iterations=iters).run()


#: PiP's stages with their copies kept: every copy of a region writes its
#: band of one shared plane, from whichever worker runs it
PIP_COPIES = keep_copies(REG, "downscale_field", "blend_field")


# -- bit-identical applications ---------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_pip_identical_frames(workers):
    spec = build_pip(1, width=64, height=48, factor=4, slices=2, frames=2,
                     collect=True)
    assert_conforms(spec, 4, ("threaded", 2, 2), ("process", workers, 2))


@pytest.mark.parametrize("workers", [1, 3])
def test_blur5_identical_planes(workers):
    spec = build_blur(5, width=48, height=36, slices=3, frames=2,
                      collect=True)
    assert_conforms(spec, 4, ("threaded", 2, 2), ("process", workers, 2))


@pytest.mark.parametrize("workers", [2, 3])
def test_slice_copies_share_one_plane_across_workers(workers):
    spec = build_pip(1, width=64, height=48, factor=4, slices=2, frames=2,
                     collect=True)
    program = make_program(spec, name="pip1")
    rt = ProcessRuntime(program, PIP_COPIES, workers=workers,
                        max_iterations=1)
    assert {"sb0_y/scale[1]", "sb0_y/blend[1]"} <= set(rt.pg.graph.node_ids)
    assert differential(program, PIP_COPIES, iterations=4,
                        rows=[Row("process", workers, 2)]) is None


def test_jpip_identical_frames():
    spec = build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                      slices=3, frames=2, collect=True)
    assert_conforms(spec, 3, ("threaded", 2, 2), ("process", 2, 2))


# -- live reconfiguration ---------------------------------------------------


def test_reconfigurable_blur_matches_threaded_when_sequential():
    """workers=1 / depth=1 is fully deterministic (the dispatcher hands
    the FIFO head to the single worker, control jobs run inline in pop
    order), so the reconfiguration points and the output must equal the
    threaded backend at nodes=1."""
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    assert_conforms(spec, 9, ("process", 1, 1), name="blur35")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_preinjected_event_reconfigures_identically_at_any_width(workers):
    """An event posted before run() is handled at the first manager
    invocation and spliced at a fixed quiescence point — deterministic
    regardless of how many workers race on the task jobs."""
    spec = build_pip(2, width=64, height=48, factor=4, slices=2, frames=2,
                     reconfigurable=True, period=100, collect=True)
    assert_conforms(spec, 6, ("process", workers, 2),
                    post=("ui", "toggle_pip"), name="pip2")


# -- accounting ---------------------------------------------------------------


def test_stream_stats_match_threaded():
    """The dispatcher's one-get-per-(copy, port) accounting reproduces the
    threaded backend's stream counters exactly."""
    spec = build_blur(5, width=48, height=36, slices=3, frames=2,
                      collect=True)
    thr = run_threaded(spec, iters=4)
    prc = run_process(spec, iters=4, workers=2)
    assert prc.stream_stats == thr.stream_stats


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
    "make",
    [
        lambda p: ThreadedRuntime(p, REGISTRY, nodes=2, pipeline_depth=2,
                                  max_iterations=8),
        lambda p: ProcessRuntime(p, REGISTRY, workers=1, pipeline_depth=2,
                                 max_iterations=8),
        lambda p: ProcessRuntime(p, REGISTRY, workers=2, pipeline_depth=2,
                                 max_iterations=8),
    ],
    ids=["threaded-2", "process-1", "process-2"],
)
def test_a_request_reaches_only_the_mirrors_that_existed(make):
    """A reconfigure request handled before an enable reaches ``base`` but
    not the ``plus`` the enable creates afterwards — on every backend."""
    rt = make(_request_then_enable_program())
    rt.post_event("ui", "move")
    rt.post_event("ui", "on")
    result = rt.run()
    assert result.reconfig_count == 1
    assert result.components["snk"].ordered() == [
        k + 7 + (100 if k >= 2 else 0) for k in range(8)
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda p: ThreadedRuntime(p, REGISTRY, nodes=1, pipeline_depth=2,
                                  max_iterations=6),
        lambda p: ProcessRuntime(p, REGISTRY, workers=1, pipeline_depth=2,
                                 max_iterations=6),
        lambda p: ProcessRuntime(p, REGISTRY, workers=2, pipeline_depth=2,
                                 max_iterations=6),
    ],
    ids=["threaded-1", "process-1", "process-2"],
)
def test_a_request_sent_before_run_reaches_every_worker_mirror(make):
    """Workers fork when ``run()`` starts, from the dispatcher's mirrors
    as they stand: a request sent before that holds in every worker."""
    rt = make(_request_then_enable_program())
    rt.send_reconfigure_request("m", "k=5")
    result = rt.run()
    assert result.components["snk"].ordered() == [5, 6, 7, 8, 9, 10]


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
    JPiP allocates raw planes (pickled bitstreams), PiP-12 splices, a
    manager broadcasts a request, and a kernel error reports ``error``."""
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
                            max_iterations=8).run()
    assert result.reconfig_count > 0

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
        iters=4, workers=2, registry=PIP_COPIES,
    ).pool_stats
    large = run_process(
        build_pip(1, width=128, height=96, factor=4, slices=2, frames=2),
        iters=4, workers=2, registry=PIP_COPIES,
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


def _exploding_blur():
    from repro.hinch.component import Component

    class Exploding(Component):
        ports = REG["luma_source"].ports

        def run(self, job):
            raise RuntimeError("kernel exploded")

    spec = build_blur(3, width=48, height=36, slices=3, frames=1)
    return ProcessRuntime(make_program(spec, name="blur"),
                          {**REG, "luma_source": Exploding},
                          workers=2, max_iterations=2)


def test_worker_exception_propagates():
    """A component crash in a worker surfaces in the dispatcher as the
    original exception, and shutdown still cleans up the pool."""
    rt = _exploding_blur()
    with pytest.raises(RuntimeError, match="kernel exploded"):
        rt.run()
    assert rt.pool.total_planes == 0


def test_a_failed_run_ends_every_worker_at_once(monkeypatch):
    """A worker closes the dispatcher pipe ends it inherits at fork, so an
    idle one sees EOF as soon as a failed run closes them and exits by
    itself: no join timeout, no SIGTERM."""
    rt = _exploding_blur()
    procs = []
    spawn = rt._spawn_one
    monkeypatch.setattr(rt, "_spawn_one", lambda slot: (
        spawn(slot), procs.append(rt._procs[slot])))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="kernel exploded"):
        rt.run()
    assert time.perf_counter() - start < 1.0
    assert [p.exitcode is not None and p.exitcode >= 0 for p in procs] == [
        True, True]


def _dying_program(at: int, kill: bool):
    """A dying source, a stage of two slice copies (their planes cross
    shared memory) and a sink."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "dying_source", streams={"output": "raw"},
                   params={"size": 8, "at": at, "kill": kill})
    with main.parallel("slice", n=2):
        main.component("work", "slice_scaler",
                       streams={"input": "raw", "output": "out"})
    main.component("snk", "collector", streams={"input": "out"})
    return expand(b.build(), PORTS)


@pytest.mark.parametrize(
    "workers,at,kill,acknowledged",
    [(1, 0, False, False), (1, 1, True, True),
     (2, 0, True, False), (2, 2, False, True)],
    ids=["1-first-job", "1-mid-lease", "2-first-job", "2-mid-lease"],
)
def test_a_lost_worker_ends_the_run(workers, at, kill, acknowledged):
    """A worker that dies, on the first job it runs or after earlier
    members of its lease were acknowledged, ends the run with a
    WorkerFailure naming it, the job it held and its exit code; the
    other workers stop, and every segment is unlinked, at once."""
    from benchmarks.e2e.hygiene import children_of

    before, children = shm_entries(), set(children_of(os.getpid()))
    rt = ProcessRuntime(_dying_program(at, kill), REGISTRY, workers=workers,
                        pipeline_depth=4, max_iterations=8)
    start = time.perf_counter()
    with pytest.raises(WorkerFailure) as info:
        rt.run()
    assert time.perf_counter() - start < 10
    failure = info.value
    assert failure.job == (at, "src")
    lease = rt._busy[failure.worker]
    assert lease.jobs[lease.done] == Job(at, "src")
    assert (lease.done > 0) is acknowledged
    assert f"exit code {-9 if kill else 3}" in str(failure)
    # an acknowledged job had its output plane made in shared memory
    assert bool(rt.pool.created) is acknowledged
    assert not set(rt.pool.created) & shm_entries()
    assert shm_entries() <= before
    assert set(children_of(os.getpid())) <= children


def test_worker_job_tables_do_not_outlive_the_job():
    """The worker's stream facade is persistent (node plans bind to it),
    but what a job unpacked or mapped must be dropped when the job ends:
    a view left behind pins its shared segment past ``close_attachments``
    (a ``BufferError`` from ``SharedMemory.__del__`` at worker exit)."""
    from repro.core import AppBuilder, expand
    from repro.hinch.engine import ComponentHost, build_configuration
    from repro.hinch.worker import _Worker
    from tests.hinch.helpers import PORTS, REGISTRY

    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"}, params={"base": 3})
    main.component("snk", "collector", streams={"input": "a"})
    program = expand(b.build(), PORTS)
    config = build_configuration(
        program, REGISTRY, None, group_chains=False)
    host = ComponentHost(program, REGISTRY)
    host.populate(config.pg.active_components)
    worker = _Worker(None, 0, config, lambda states: config, host)
    try:
        record = worker._run_job(0, "src", {}, (), None)
        shipped = record[2]
        assert list(shipped) == ["a"]
        facade = worker.streams
        assert facade.inputs is facade.values is facade.ensured is None
        # the next job starts from fresh tables, not the previous job's
        follow = worker._run_job(0, "snk", dict(shipped), (), None)
        assert follow[2] == {} and facade.values is None
        assert follow[7] == {"snk": [(0, 3)]}  # the collector's checkpoint
    finally:
        worker.pool.close_attachments()


def test_component_exception_carries_remote_traceback():
    """A deterministic kernel crash is not retried; it surfaces as the
    original exception chained to a WorkerFailure holding the worker's
    formatted traceback (satellite: the ``tb`` must not be dropped)."""
    from repro.hinch.component import Component

    class Exploding(Component):
        ports = REG["luma_source"].ports

        def run(self, job):
            raise RuntimeError("kernel exploded")

    registry = dict(REG)
    registry["luma_source"] = Exploding
    program = make_program(blur_spec(), name="blur")
    rt = ProcessRuntime(program, registry, workers=2, max_iterations=2)
    with pytest.raises(RuntimeError, match="kernel exploded") as info:
        rt.run()
    cause = info.value.__cause__
    assert isinstance(cause, WorkerFailure)
    assert "kernel exploded" in cause.remote_traceback
    assert "Traceback" in cause.remote_traceback
    assert rt.scheduler.retries == 0  # deterministic errors fail fast


def test_error_during_shutdown_drain_is_surfaced(monkeypatch):
    """Satellite regression: a worker failing while the dispatcher drains
    the stop handshake used to be swallowed; it must raise.  The workers
    fork after the patch, so each one's ``bye`` asks its pool stats for a
    counter they do not have; the dispatcher kept the real key list."""
    import repro.hinch.worker as worker

    monkeypatch.setattr(worker, "_WORKER_STAT_KEYS",
                        worker._WORKER_STAT_KEYS + ("no_such_counter",))
    program = make_program(blur_spec(), name="blur")
    rt = ProcessRuntime(program, REG, workers=2, max_iterations=2)
    with pytest.raises(KeyError, match="no_such_counter"):
        rt.run()
    assert rt.pool.total_planes == 0


_INTERRUPTED_CHILD = """
from repro.apps import build_pip, make_program
from repro.components.registry import default_registry
from repro.hinch import ProcessRuntime
registry = default_registry()


class Banded(registry["downscale_field"]):
    row_contract = False  # copies keep their planes in shared memory


spec = build_pip(1, width=64, height=48, factor=4, slices=2, frames=2)
ProcessRuntime(make_program(spec, name="pip1"),
               {**registry, "downscale_field": Banded},
               workers=2, max_iterations=10**6).run()
"""


def _signal_a_running_session(signum: int) -> None:
    """Signal the whole session of a live process run: its ``finally``
    must still stop the workers and unlink the segments, so that
    resource_tracker has nothing left to reap."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from benchmarks.e2e.hygiene import shm_entries, wait_session_gone

    def mapped_segments() -> set[str]:
        maps = Path(f"/proc/{child.pid}/maps").read_text()
        return set(re.findall(r"/dev/shm/(psm_\w+)", maps))

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_CHILD],
                             env=env, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not mapped_segments():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        # past the pool's warm-up: an interrupt between a segment's
        # shm_open and its registration would leave that segment behind
        time.sleep(0.5)
        segments = mapped_segments()
        os.killpg(child.pid, signum)
        _, err = child.communicate(timeout=10)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert wait_session_gone(child.pid)
    assert not segments & shm_entries()
    assert "leaked shared_memory" not in err


def test_sigint_to_a_running_session_leaves_nothing_behind():
    """Ctrl-C in a terminal signals the whole foreground group."""
    import signal

    _signal_a_running_session(signal.SIGINT)


def test_sigterm_to_a_running_session_leaves_nothing_behind():
    """``kill`` and supervisors send SIGTERM, whose default action would
    end the dispatcher without its ``finally``: a run maps it to
    ``KeyboardInterrupt`` while it lasts."""
    import signal

    _signal_a_running_session(signal.SIGTERM)


def test_a_run_restores_the_sigterm_handler():
    import signal

    program = make_program(build_blur(3, width=48, height=36, slices=3,
                                      frames=1), name="blur")
    before = signal.getsignal(signal.SIGTERM)
    ProcessRuntime(program, REG, workers=1, max_iterations=2).run()
    assert signal.getsignal(signal.SIGTERM) is before


def test_a_worker_keeps_sigterm_at_its_default_action():
    """Only the dispatcher maps SIGTERM to ``KeyboardInterrupt``: a
    worker forked during the run ends at once on it."""
    import signal

    class Probe(REG["luma_source"]):
        def run(self, job):
            if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
                raise RuntimeError("worker SIGTERM is not SIG_DFL")
            super().run(job)

    program = make_program(build_blur(3, width=48, height=36, slices=3,
                                      frames=1), name="blur")
    result = ProcessRuntime(program, {**REG, "luma_source": Probe},
                            workers=2, max_iterations=3).run()
    assert result.completed_iterations == 3

"""Fault tolerance: the dispatcher survives worker crashes and hangs.

Recovery must be invisible in the output — every scenario below pins the
process backend's frames against the threaded runtime bit-for-bit while
workers are being killed or wedged — and complete in the accounting: shm
leases return to the pool, retries are recorded, and nothing leaks into
``/dev/shm``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import build_blur, build_pip, make_program
from repro.components.registry import default_registry
from repro.errors import SchedulingError, WorkerFailure
from repro.hinch import FaultInjector, FaultSpec, ProcessRuntime, ThreadedRuntime
from repro.hinch.faults import parse_faults

from tests.hinch.helpers import shm_entries

REG = default_registry()


def pip_spec():
    return build_pip(1, width=64, height=48, factor=4, slices=2, frames=2,
                     collect=True)


def blur_spec():
    return build_blur(3, width=48, height=36, slices=3, frames=2,
                      collect=True)


def run_threaded(spec, *, iters, name="app"):
    program = make_program(spec, name=name)
    return ThreadedRuntime(program, REG, nodes=2, pipeline_depth=2,
                           max_iterations=iters).run()


def make_process(spec, *, iters, workers=2, name="app", **kwargs):
    program = make_program(spec, name=name)
    return ProcessRuntime(program, REG, workers=workers, pipeline_depth=2,
                          max_iterations=iters, **kwargs)


def kinds_of(result):
    counts: dict[str, int] = {}
    for event in result.fault_events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts


# -- the tentpole scenario ---------------------------------------------------


@pytest.mark.parametrize("at_job", [1, 3])
def test_worker_killed_mid_run_is_bit_identical(at_job):
    """A worker hard-crashing mid-iteration costs nothing but a retry:
    output equals the threaded backend and no shm segment is orphaned."""
    spec = pip_spec()
    before = shm_entries()
    thr = run_threaded(spec, iters=4)
    rt = make_process(spec, iters=4, faults=f"kill:{at_job}")
    prc = rt.run()
    kinds = kinds_of(prc)
    assert kinds["worker_failure"] == 1
    assert kinds["retry"] == 1
    assert kinds["respawn"] == 1
    assert rt.scheduler.retries == 1
    assert rt.pool.live_planes == 0
    assert rt.pool.total_planes == 0
    assert shm_entries() - before == set()
    a = thr.components["sink"].ordered_frames()
    b = prc.components["sink"].ordered_frames()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert x == y


def test_hung_kernel_reaped_by_watchdog():
    spec = blur_spec()
    thr = run_threaded(spec, iters=4)
    # task 1 heads the first lease, src@0 plus its speculated src@1: the
    # head is retried, a speculated member is retracted instead
    rt = make_process(spec, iters=4, faults="hang:1", watchdog=1.0)
    prc = rt.run()
    kinds = kinds_of(prc)
    assert kinds["watchdog_kill"] == 1
    assert kinds["retry"] == 1
    assert kinds["respawn"] == 1
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_slow_fault_delays_but_never_fails():
    spec = blur_spec()
    thr = run_threaded(spec, iters=4)
    rt = make_process(spec, iters=4, faults="slow:2:30")
    prc = rt.run()
    assert prc.fault_events == []
    assert rt.scheduler.retries == 0
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_kill_under_live_reconfiguration_is_bit_identical():
    """Recovery composes with reconfiguration: the respawned worker
    replays the reconfigure history, so a crash between splices still
    produces the threaded backend's exact output."""
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    program = make_program(spec, name="blur35")
    thr_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=9)
    thr = thr_rt.run()
    prc_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=1,
                            max_iterations=9, faults="kill:5")
    prc = prc_rt.run()
    assert kinds_of(prc)["respawn"] == 1
    assert prc_rt.reconfig_log == thr_rt.reconfig_log
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# -- respawn vs. degrade -----------------------------------------------------


def test_degrade_to_surviving_pool_without_respawn():
    spec = blur_spec()
    thr = run_threaded(spec, iters=4)
    rt = make_process(spec, iters=4, workers=3, faults="kill:1",
                      respawn=False)
    prc = rt.run()
    kinds = kinds_of(prc)
    assert kinds["degrade"] == 1
    assert "respawn" not in kinds
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_degrade_to_zero_raises_worker_failure():
    rt = make_process(blur_spec(), iters=2, workers=1, faults="kill:1",
                      respawn=False)
    with pytest.raises(WorkerFailure):
        rt.run()
    assert rt.pool.total_planes == 0


def test_retry_budget_exhausted_raises_structured_failure():
    rt = make_process(blur_spec(), iters=2, faults="kill:1", max_retries=0)
    with pytest.raises(WorkerFailure) as info:
        rt.run()
    assert info.value.job is not None
    assert info.value.worker is not None
    assert rt.pool.total_planes == 0


def test_fault_events_carry_incarnation_and_job():
    rt = make_process(pip_spec(), iters=4, faults="kill:1")
    rt.run()
    failure = next(e for e in rt.fault_events if e["kind"] == "worker_failure")
    assert failure["job"] is not None
    assert isinstance(failure["incarnation"], int)
    respawn = next(e for e in rt.fault_events if e["kind"] == "respawn")
    assert respawn["incarnation"] > failure["incarnation"]


def test_trace_records_fault_kinds():
    rt = make_process(pip_spec(), iters=4, faults="kill:1", trace=True)
    result = rt.run()
    counts = result.trace.kind_counts()
    assert counts.get("worker_failure") == 1
    assert counts.get("respawn") == 1


# -- error reporting ---------------------------------------------------------


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


# -- the injection harness ---------------------------------------------------


def test_parse_faults_round_trip():
    specs = parse_faults("kill:1,hang:5,slow:2:50")
    assert specs == [
        FaultSpec("kill", 1),
        FaultSpec("hang", 5),
        FaultSpec("slow", 2, ms=50.0),
    ]


@pytest.mark.parametrize("text", [
    "boom:1",          # unknown kind
    "kill",            # missing index
    "kill:0",          # 1-based indices
    "kill:x",          # non-integer
    "slow:2",          # slow needs a duration
    "slow:2:0",        # ... a positive one
    "kill:1,hang:1",   # duplicate job index
    "kill:1:9",        # kill takes no duration
])
def test_parse_faults_rejects_malformed(text):
    with pytest.raises(SchedulingError):
        parse_faults(text)


def test_injector_directives_are_one_shot():
    inj = FaultInjector("kill:2,slow:3:10")
    assert inj.directive(1) is None
    assert inj.directive(2) == ("kill",)
    assert inj.directive(2) is None  # consumed
    assert inj.directive(3) == ("slow", 10.0)
    assert inj.remaining == []
    assert [s.kind for s in inj.injected] == ["kill", "slow"]


def test_scheduler_requeue_guards():
    """requeue() only accepts jobs the scheduler actually dispatched."""
    from repro.hinch.jobqueue import Job

    spec = blur_spec()
    program = make_program(spec, name="blur")
    rt = make_process(spec, iters=2)
    try:
        with pytest.raises(SchedulingError):
            rt.scheduler.requeue(Job(iteration=0, node_id="nope"))
    finally:
        rt.pool.close()


# -- spec hygiene (fuzzer-pinned) --------------------------------------------


def test_injector_rejects_duplicate_indices_in_spec_lists():
    """The dict keyed by at_job would silently keep only the last
    directive — programmatic spec lists get the same rejection as the
    parsed CLI syntax."""
    specs = [FaultSpec("kill", 2), FaultSpec("slow", 2, ms=10.0)]
    with pytest.raises(SchedulingError, match="job 2"):
        FaultInjector(specs)


def test_fault_spec_describe_round_trips_through_parser():
    specs = parse_faults("kill:1,hang:5,slow:2:50,slow:7:2.5")
    text = ",".join(s.describe() for s in specs)
    assert text == "kill:1,hang:5,slow:2:50,slow:7:2.5"
    assert parse_faults(text) == specs


def test_injector_remaining_reports_unfired_specs():
    inj = FaultInjector("kill:2,slow:9:10,kill:40")
    inj.directive(1)
    inj.directive(2)
    assert [s.describe() for s in inj.remaining] == ["slow:9:10", "kill:40"]


def test_unfired_faults_surface_in_run_summary():
    """A fault aimed past the end of the run must not vanish silently:
    the run result carries an ``unfired`` event naming the spec."""
    rt = make_process(blur_spec(), iters=2, workers=1,
                      faults="kill:1,kill:5000")
    before = shm_entries()
    result = rt.run()
    assert shm_entries() == before
    unfired = [e for e in result.fault_events if e["kind"] == "unfired"]
    assert len(unfired) == 1
    assert "kill:5000" in unfired[0]["detail"]
    assert "never fired" in unfired[0]["detail"]
    # the fired kill still recovered normally
    assert kinds_of(result).get("worker_failure") == 1

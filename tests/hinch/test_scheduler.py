"""Tests for the dataflow scheduler state machine (no threads)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.core.program import ProgramGraph
from repro.errors import SchedulingError
from repro.hinch import ThreadedRuntime
from repro.hinch.jobqueue import Job
from repro.hinch.scheduler import DataflowScheduler, ReconfigPlan

from tests.hinch.helpers import PORTS


def linear_pg() -> ProgramGraph:
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("dbl", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    return expand(b.build(), PORTS).build_graph()


def drive_to_completion(sched: DataflowScheduler) -> list[Job]:
    """Run jobs in FIFO order single-threaded; returns execution order."""
    order: list[Job] = []
    frontier = list(sched.start())
    while frontier:
        job = frontier.pop(0)
        order.append(job)
        frontier.extend(sched.complete(job))
    assert sched.done
    return order


def test_all_jobs_execute_once():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=3, max_iterations=4)
    order = drive_to_completion(sched)
    assert len(order) == 3 * 4
    assert len(set(order)) == len(order)
    assert sched.completed_iterations == 4


def test_intra_iteration_order_respected():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=2, max_iterations=3)
    order = drive_to_completion(sched)
    pos = {(j.node_id, j.iteration): i for i, j in enumerate(order)}
    for k in range(3):
        assert pos[("src", k)] < pos[("dbl", k)] < pos[("snk", k)]


def test_cross_iteration_self_dependency():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=5, max_iterations=4)
    order = drive_to_completion(sched)
    pos = {(j.node_id, j.iteration): i for i, j in enumerate(order)}
    for node in ("src", "dbl", "snk"):
        for k in range(3):
            assert pos[(node, k)] < pos[(node, k + 1)]


def test_pipeline_depth_bounds_in_flight():
    pg = linear_pg()
    sched = DataflowScheduler(pg, pipeline_depth=2, max_iterations=10)
    frontier = list(sched.start())
    max_in_flight = sched.in_flight
    while frontier:
        job = frontier.pop(0)
        frontier.extend(sched.complete(job))
        max_in_flight = max(max_in_flight, sched.in_flight)
    assert max_in_flight <= 2


def test_pipeline_depth_one_is_strictly_sequential():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=1, max_iterations=3)
    order = drive_to_completion(sched)
    iterations = [j.iteration for j in order]
    assert iterations == sorted(iterations)


def test_zero_iterations_done_immediately():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=2, max_iterations=0)
    assert sched.start() == []
    assert sched.done


def test_request_stop_halts_admission():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=1, max_iterations=100)
    frontier = list(sched.start())
    executed = []
    while frontier:
        job = frontier.pop(0)
        executed.append(job)
        if job.iteration == 2 and job.node_id == "src":
            sched.request_stop()
        frontier.extend(sched.complete(job))
    assert sched.done
    # iterations 0..2 run to completion; nothing beyond admitted
    assert max(j.iteration for j in executed) == 2
    assert sched.completed_iterations == 3


def test_duplicate_completion_rejected():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=1, max_iterations=1)
    (job,) = sched.start()
    sched.complete(job)  # iteration 0 stays in flight: dbl, snk remain
    with pytest.raises(SchedulingError, match="duplicate"):
        sched.complete(job)


@pytest.fixture
def completed_in_flight():
    """A scheduler at depth 3 with ``src@0`` completed and ``src@1``
    dispatched, iterations 0..2 all still in flight."""
    sched = DataflowScheduler(linear_pg(), pipeline_depth=3, max_iterations=6)
    assert sched.start() == [Job(0, "src")]
    first = Job(0, "src")
    assert sched.complete(first) == [Job(0, "dbl"), Job(1, "src")]
    assert sched.in_flight == 3
    return sched, first


def test_duplicate_completion_rejected_while_iteration_in_flight(
    completed_in_flight,
):
    sched, done = completed_in_flight
    with pytest.raises(SchedulingError, match="duplicate"):
        sched.complete(done)
    # the next iteration's job of the same node is not confused with it
    # (dbl@1 still waits for dbl@0)
    assert sched.complete(Job(1, "src")) == [Job(2, "src")]
    with pytest.raises(SchedulingError, match="duplicate"):
        sched.complete(Job(1, "src"))


def test_complete_appends_to_a_given_container():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=2, max_iterations=2)
    ready = deque(sched.start())
    order = []
    while ready:
        job = ready.popleft()
        order.append(job)
        assert sched.complete(job, ready) is ready
    assert sched.done
    plain = DataflowScheduler(linear_pg(), pipeline_depth=2, max_iterations=2)
    assert drive_to_completion(plain) == order


def test_unknown_completion_rejected():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=1, max_iterations=1)
    sched.start()
    with pytest.raises(SchedulingError):
        sched.complete(Job(iteration=7, node_id="src"))


def test_double_start_rejected():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=1, max_iterations=1)
    sched.start()
    with pytest.raises(SchedulingError, match="already started"):
        sched.start()


def test_invalid_parameters_rejected():
    pg = linear_pg()
    with pytest.raises(SchedulingError):
        DataflowScheduler(pg, pipeline_depth=0, max_iterations=1)
    with pytest.raises(SchedulingError):
        DataflowScheduler(pg, pipeline_depth=1, max_iterations=-1)


# -- reconfiguration ------------------------------------------------------------


class _ReconfigHooks:
    """Hooks that rebuild the graph from a program on reconfigure."""

    def __init__(self, program):
        self.program = program
        self.states = program.default_option_states()
        self.reconfigured_at: list[int] = []
        self.released: list[int] = []

    def on_iteration_complete(self, iteration: int) -> None:
        self.released.append(iteration)

    def on_reconfigure(self, plans, resume_iteration):
        for plan in plans:
            self.states.update(plan.changes)
        self.reconfigured_at.append(resume_iteration)
        return self.program.build_graph(self.states)


def optional_program():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    with main.manager("m", queue="q"):
        with main.option("opt", enabled=False, bypass=[("a", "b")]):
            main.component("extra", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    return expand(b.build(), PORTS)


def test_reconfig_drains_then_switches():
    program = optional_program()
    hooks = _ReconfigHooks(program)
    pg = program.build_graph()
    sched = DataflowScheduler(pg, pipeline_depth=3, max_iterations=8, hooks=hooks)
    frontier = list(sched.start())
    executed = []
    requested = False
    while frontier:
        job = frontier.pop(0)
        executed.append(job)
        if not requested and job.iteration == 1 and job.node_id == "m.enter":
            sched.request_reconfig(
                ReconfigPlan(manager="m", changes={"opt": True})
            )
            requested = True
        frontier.extend(sched.complete(job))
    assert sched.done
    assert sched.reconfig_count == 1
    # 'extra' only executes in iterations after the switch point
    extra_iters = [j.iteration for j in executed if j.node_id == "extra"]
    assert extra_iters
    switch = hooks.reconfigured_at[0]
    assert min(extra_iters) == switch
    assert sched.completed_iterations == 8
    # iterations released in order
    assert hooks.released == list(range(8))


def test_reconfig_applies_merged_plans():
    program = optional_program()
    hooks = _ReconfigHooks(program)
    sched = DataflowScheduler(
        program.build_graph(), pipeline_depth=2, max_iterations=6, hooks=hooks
    )
    frontier = list(sched.start())
    fired = False
    while frontier:
        job = frontier.pop(0)
        if not fired and job.node_id == "m.enter":
            # enable then disable before quiescence: net no-op is applied
            sched.request_reconfig(ReconfigPlan("m", {"opt": True}))
            sched.request_reconfig(ReconfigPlan("m", {"opt": False}))
            fired = True
        frontier.extend(sched.complete(job))
    assert sched.done
    assert hooks.states == {"opt": False}
    assert sched.reconfig_count == 1  # drained once, merged plans


def test_reconfig_halts_admission_until_quiescent():
    program = optional_program()
    hooks = _ReconfigHooks(program)
    sched = DataflowScheduler(
        program.build_graph(), pipeline_depth=4, max_iterations=10, hooks=hooks
    )
    frontier = list(sched.start())
    in_flight_at_reconfig = None
    while frontier:
        job = frontier.pop(0)
        if job.iteration == 0 and job.node_id == "m.enter":
            sched.request_reconfig(ReconfigPlan("m", {"opt": True}))
            in_flight_at_reconfig = sched.in_flight
        frontier.extend(sched.complete(job))
    assert in_flight_at_reconfig is not None
    switch = hooks.reconfigured_at[0]
    # admission stopped: the switch happened exactly after the iterations
    # that were in flight at request time drained
    assert switch == in_flight_at_reconfig
    assert sched.completed_iterations == 10


# -- the one-worker loop's order ------------------------------------------------

REG = default_registry()

#: name -> (builder, iterations); the reconfigurable ones splice
ORDER_APPS = {
    "pip12": (lambda: build_pip(2, reconfigurable=True, period=3, width=64,
                                height=48, factor=4, slices=2), 12),
    "blur35": (lambda: build_blur(reconfigurable=True, period=3, width=48,
                                  height=36, slices=3), 12),
    "jpip1": (lambda: build_jpip(1, width=64, height=48, pip_height=48,
                                 factor=4, slices=3), 6),
    "audio12": (lambda: build_audio(reconfigurable=True, period=3,
                                    channels=8, block=64, slices=2), 12),
}


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("name", ORDER_APPS)
def test_inline_loop_runs_the_fifo_order(name, depth):
    """``ThreadedRuntime(nodes=1)`` completes jobs in the order one worker
    popping a FIFO of ready jobs would, splices included."""
    build, iterations = ORDER_APPS[name]

    def runtime():
        return ThreadedRuntime(make_program(build(), name=name), REG,
                               nodes=1, pipeline_depth=depth,
                               max_iterations=iterations)

    rt = runtime()
    order = []
    complete = rt.scheduler.complete

    def logged(job, ready=None):
        order.append(job)
        return complete(job, ready)

    rt.scheduler.complete = logged
    rt.run()

    reference = runtime()
    sched = reference.scheduler
    expected = []
    ready = deque(sched.start())
    while ready:
        job = ready.popleft()
        reference.node_plans[job.node_id].run(job.iteration)
        expected.append(job)
        sched.complete(job, ready)
    assert sched.done
    assert order == expected
    assert rt.reconfig_log == reference.reconfig_log
    assert bool(reference.reconfig_log) == bool(reference.program.managers)

"""Batched dispatch: lease equivalence and speculation units.

The lease machinery (ready extension, speculative follow-ons, worker-
resident slots), which every process dispatch uses, must be invisible in
the output: every pipeline depth and worker count produces the threaded
backend's frames and stream counters (``tests/test_conformance.py``'s
check, on the rows named here).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import build_blur, build_pip, make_program
from repro.components.registry import default_registry
from repro.core import AppBuilder, expand
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.jobqueue import Job
from repro.hinch.scheduler import DataflowScheduler

from tests.hinch.helpers import PORTS
from tests.test_conformance import assert_conforms

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


def make_process(spec, *, iters, workers=2, depth=2, name="app"):
    program = make_program(spec, name=name)
    return ProcessRuntime(program, REG, workers=workers, pipeline_depth=depth,
                          max_iterations=iters)


# -- batch equivalence --------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("workers", [1, 4])
def test_batched_pip_bit_identical(depth, workers):
    """Every pipeline depth (how far leases may speculate ahead) and
    worker count reproduces the threaded frames, and the stream
    read/write accounting (deferred-read replay included) matches the
    threaded backend's counter for counter."""
    assert_conforms(pip_spec(), 4, ("threaded", 2, 2),
                    ("process", workers, depth))


@pytest.mark.parametrize("workers", [2, 4])
def test_batched_blur_planes_identical(workers):
    assert_conforms(blur_spec(), 4, ("threaded", 2, 2),
                    ("process", workers, 2))


# -- lease assembly -----------------------------------------------------------


def test_batched_reconfiguration_is_deterministic():
    """Lease assembly never scans past a control node, so manager timing
    — and with it the reconfiguration log — matches one thread's."""
    spec = build_blur(reconfigurable=True, period=3, width=48, height=36,
                      slices=3, frames=2, collect=True)
    program = make_program(spec, name="blur35")
    thr_rt = ThreadedRuntime(program, REG, nodes=1, pipeline_depth=1,
                             max_iterations=9)
    thr = thr_rt.run()
    prc_rt = ProcessRuntime(program, REG, workers=1, pipeline_depth=1,
                            max_iterations=9)
    prc = prc_rt.run()
    assert prc_rt.reconfig_log == thr_rt.reconfig_log
    a = thr.components["sink"].ordered_planes()
    b = prc.components["sink"].ordered_planes()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_more_workers_than_cores_all_fork_and_stay_identical():
    """With one (forced) core and four workers, every slot still forks
    at start — the dispatcher never holds work back on a core count —
    and the output is bit-identical to threads."""
    spec = pip_spec()
    thr = run_threaded(spec, iters=4)
    rt = make_process(spec, iters=4, workers=4)
    rt._cores = 1
    prc = rt.run()
    assert prc.workers_spawned == 4
    a = thr.components["sink"].ordered_frames()
    b = prc.components["sink"].ordered_frames()
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert x == y


# -- scheduler speculation units ----------------------------------------------


def linear_pg():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "a"})
    main.component("dbl", "doubler", streams={"input": "a", "output": "b"})
    main.component("snk", "collector", streams={"input": "b"})
    return expand(b.build(), PORTS).build_graph()


def test_extract_followons_chains_successors_and_pipeline():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=3, max_iterations=3)
    lease = list(sched.start())
    assert lease == [Job(iteration=0, node_id="src")]
    extras = sched.extract_followons(lease, 4)
    assert Job(iteration=0, node_id="dbl") in extras
    assert Job(iteration=1, node_id="src") in extras
    assert len(extras) == len(set(extras)) <= 4


def test_extract_followons_pipeline_only_skips_successors():
    sched = DataflowScheduler(linear_pg(), pipeline_depth=3, max_iterations=3)
    lease = list(sched.start())
    extras = sched.extract_followons(lease, 4, pipeline_only=True)
    assert extras == [
        Job(iteration=1, node_id="src"),
        Job(iteration=2, node_id="src"),
    ]


# -- the dispatcher's lease scan ----------------------------------------------


def test_lease_extension_never_crosses_a_queued_control_job():
    """The head grows by queued ready jobs, but the scan stops at a
    control job: a manager invocation keeps its FIFO position."""
    program = make_program(
        build_blur(reconfigurable=True, period=5, width=48, height=36,
                   slices=3),
        name="blur35",
    )
    rt = ProcessRuntime(program, REG, workers=2, max_iterations=4)
    try:
        nodes = list(rt.pg.graph)
        a, b, c, d = [Job(0, n.node_id) for n in nodes if n.kind == "task"][:4]
        ctl = next(Job(0, n.node_id) for n in nodes if n.kind != "task")
        rt._idle = {1}  # worker 0 takes the head, worker 1 waits
        # the scan alone: no speculative follow-ons
        rt.scheduler.extract_followons = lambda *args, **kwargs: []

        rt.queue.extend([b, ctl, c, d])
        assert rt._assemble_lease(0, a).jobs == [a, b]
        assert list(rt.queue) == [ctl, c, d]

        # with no control job queued, it takes the surplus the idle
        # worker cannot absorb, up to the lease size
        rt.queue.clear()
        rt.queue.extend([b, c, d])
        assert rt._assemble_lease(0, a).jobs == [a, b, c]
        assert list(rt.queue) == [d]
    finally:
        rt.pool.close()

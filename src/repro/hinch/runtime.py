"""ThreadedRuntime: Hinch executing for real, on the caller's thread or on workers.

This is the *correctness* backend: components compute actual data (numpy
frames, JPEG bitstreams...), streams carry it, managers reconfigure live.
With ``nodes >= 2``, that many worker threads pop jobs from the central
queue — under CPython's GIL this yields concurrency, not parallel
speedup; performance curves come from the SpaceCAKE simulator
(:mod:`repro.spacecake`).  ``nodes=1`` starts no thread at all: the
caller's thread runs the jobs in the FIFO order one worker would pop
them, batch by batch from plain lists.  Every width builds the same
program: a data-parallel region of row-contract classes runs as one
copy, so the workers overlap nodes and iterations, not copies of one
region.
Graph build, managers and reconfiguration are
the shared :class:`~repro.hinch.engine.Coordinator`, and what a job runs
is its node's :class:`~repro.hinch.engine.NodePlan`, whatever the node's
kind; this module adds the two executors — and, for the threads, the job
queue — and the :class:`RunResult` every real executor returns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SchedulingError
from repro.hinch.component import Component
from repro.hinch.engine import ComponentHost, Coordinator
from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.tracing import Tracer

__all__ = ["ThreadedRuntime", "RunResult", "run_result", "ComponentHost"]


@dataclass
class RunResult:
    """Outcome of one application run.

    ``components`` and ``stream_stats`` describe what ran.  On threads
    and processes a data-parallel region of row-contract classes runs as
    one copy: ``components`` holds ``x[0]`` with ``slice == (0, 1)`` and
    no ``x[1]``, and a stream that copy writes counts one write per
    iteration, not one per copy.
    """

    completed_iterations: int
    elapsed_seconds: float
    reconfig_count: int
    trace: Tracer
    components: dict[str, Component]
    stream_stats: dict[str, tuple[int, int]]  # name -> (writes, reads)
    events_handled: int = 0
    events_ignored: int = 0
    #: allocation + serialization counters of the process backend's
    #: plane pool, summed across processes (see
    #: :class:`repro.hinch.shm.PoolStats`); empty on threads, whose
    #: streams recycle their own buffers
    pool_stats: dict[str, int] = field(default_factory=dict)
    #: always empty: no executor recovers from a failure (a lost process
    #: worker ends the run with :class:`~repro.errors.WorkerFailure`).
    #: Kept because ``benchmarks/e2e/measure.py`` reads it.
    fault_events: list[dict[str, Any]] = field(default_factory=list)
    #: configured worker count: every process slot forks at start, and
    #: it equals ``nodes`` on the threaded backend.  Kept because
    #: ``benchmarks/e2e/layers.py`` reads it.
    workers_spawned: int = 0


class ThreadedRuntime(Coordinator):
    """Run a Program with real component execution.

    ``nodes=1`` runs on the calling thread; ``nodes >= 2`` on that many
    worker threads sharing the central :class:`JobQueue`.  Its builds
    fuse pairs only: the chain compiler
    (:func:`~repro.hinch.fusion.fuse_chains`) costs a thread more calls
    per job than it saves (docs/performance.md).  At every width each
    data-parallel region of row-contract classes runs as one full-span
    copy (:attr:`Coordinator.paper_graph`), so every width builds the
    program ``nodes=1`` runs.
    """

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        nodes: int = 1,
        pipeline_depth: int = 5,
        max_iterations: int,
        trace: bool = False,
        option_states: Mapping[str, bool] | None = None,
    ) -> None:
        if nodes < 1:
            raise SchedulingError(f"nodes must be >= 1, got {nodes}")
        self.nodes = nodes
        super().__init__(
            program, registry,
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            trace=trace,
            option_states=option_states,
            # only worker threads run jobs at once: at nodes=1 neither
            # the streams nor a manager step take a lock
            concurrent_jobs=nodes > 1,
        )
        #: the workers' central FIFO; None at nodes=1 (no workers)
        self.queue: JobQueue | None = JobQueue() if nodes > 1 else None
        self._failure: BaseException | None = None

    # -- execution --------------------------------------------------------------------

    def _execute(self, job: Job, worker: int) -> None:
        plan = self.node_plans[job.node_id]
        tracing = self.tracer.enabled
        if tracing:
            start = time.perf_counter()
        plan.run(job.iteration)
        if tracing:
            self.tracer.record_job(
                job.node_id, job.iteration, worker, start,
                time.perf_counter(), plan.kind,
            )

    def _worker(self, worker_id: int) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return
            try:
                self._execute(job, worker_id)
            except BaseException as exc:  # propagate to run()
                with self._lock:
                    if self._failure is None:
                        self._failure = exc
                self.queue.close()
                return
            with self._lock:
                ready = self.scheduler.complete(job)
                # a ready job belongs to an iteration still in flight
                done = not ready and self.scheduler.done
            if ready:
                self.queue.push_all(ready)
            elif done:
                self.queue.drain()

    def _run_inline(self) -> None:
        """``nodes=1``: run every job on the calling thread, FIFO.

        The order is exactly the one a single worker popping the central
        queue produced: the jobs a batch readies run, in readiness order,
        after the whole batch, as they would queue behind it.  Batches
        are plain lists, so a job costs no pop; no job or completion
        takes the coordinator's lock and nothing is handed between
        threads.  A component exception (or a ``KeyboardInterrupt``)
        leaves :meth:`run` from here.
        """
        scheduler = self.scheduler
        complete = scheduler.complete
        tracing = self.tracer.enabled
        ready = scheduler.start()
        while ready:
            batch, ready = ready, []
            for job in batch:
                if tracing:
                    self._execute(job, 0)
                else:
                    # NodePlan.run's loop, without its frame; the plan is
                    # looked up per job: a splice inside complete()
                    # installs a new configuration's plans
                    iteration = job.iteration
                    for run, ctx in self.node_plans[job.node_id].steps:
                        ctx.iteration = iteration
                        run(ctx)
                complete(job, ready)
        if not scheduler.done:
            self._raise_stalled()

    def _run_threads(self) -> None:
        """``nodes >= 2``: worker threads share the central job queue."""
        with self._lock:
            initial = self.scheduler.start()
            done_immediately = self.scheduler.done
        self.queue.push_all(initial)
        if done_immediately:
            self.queue.drain()
        stopped = [threading.Event() for _ in range(self.nodes)]

        def work(i: int) -> None:
            try:
                self._worker(i)
            finally:
                stopped[i].set()

        threads = [
            threading.Thread(
                target=work, args=(i,), name=f"hinch-worker-{i}",
                daemon=True,
            )
            for i in range(self.nodes)
        ]
        try:
            for t in threads:
                t.start()
            # not join(): on CPython 3.11 an interrupted join() marks the
            # thread stopped while it runs, and no later join() waits
            for event in stopped:
                event.wait()
        finally:
            # an interrupt must not leave the workers running jobs: each
            # finishes the one it holds and stops
            self.queue.close()
            for t in threads:
                if t.is_alive():
                    t.join()
        if self._failure is not None:
            raise self._failure

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components."""
        start = time.perf_counter()
        if self.nodes == 1:
            self._run_inline()
        else:
            self._run_threads()
        return run_result(self, time.perf_counter() - start,
                          workers_spawned=self.nodes)


def run_result(rt: Coordinator, elapsed: float, **own: Any) -> RunResult:
    """The :class:`RunResult` of a finished real run of ``rt``.

    ``own`` holds the fields only that executor fills (``pool_stats``,
    ``workers_spawned``).
    """
    streams = rt.streams
    managers = rt.managers.values()
    return RunResult(
        completed_iterations=rt.scheduler.completed_iterations,
        elapsed_seconds=elapsed,
        reconfig_count=rt.scheduler.reconfig_count,
        trace=rt.tracer,
        components=dict(rt.host.live),
        stream_stats={name: streams.stream(name).stats
                      for name in streams.names},
        events_handled=sum(m.events_handled for m in managers),
        events_ignored=sum(m.events_ignored for m in managers),
        **own,
    )

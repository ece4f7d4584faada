"""ThreadedRuntime: Hinch executing for real, on the caller's thread or on workers.

This is the *correctness* backend: components compute actual data (numpy
frames, JPEG bitstreams...), streams carry it, managers reconfigure live.
With ``nodes >= 2``, that many worker threads pop jobs from the central
queue — under CPython's GIL this yields concurrency, not parallel
speedup; performance curves come from the SpaceCAKE simulator
(:mod:`repro.spacecake`).  ``nodes=1`` starts no thread at all: the
caller's thread runs the jobs in the FIFO order one worker would pop
them, from a plain deque.  Graph build, managers and reconfiguration are
the shared :class:`~repro.hinch.engine.Coordinator`; this module adds the
two executors — and, for the threads, the job queue and the lock that
lets them share it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SchedulingError
from repro.hinch.component import Component
from repro.hinch.engine import ComponentHost, Coordinator
from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.tracing import Tracer

__all__ = ["ThreadedRuntime", "RunResult", "ComponentHost"]


@dataclass
class RunResult:
    """Outcome of one application run.

    ``components`` and ``stream_stats`` describe what ran.  At one
    worker (``ThreadedRuntime(nodes=1)``) a data-parallel region of
    row-contract classes runs as one copy: ``components`` holds ``x[0]``
    with ``slice == (0, 1)`` and no ``x[1]``, and a stream that copy
    writes counts one write per iteration, not one per copy.
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
    #: worker failures, retries and respawns observed by the process
    #: backend (empty elsewhere); each entry is a dict with at least
    #: ``kind``/``worker``/``detail`` keys — see docs/fault-tolerance.md
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
    per job than it saves (docs/performance.md).  At ``nodes=1`` each
    data-parallel region of row-contract classes runs as one full-span
    copy (:attr:`Coordinator.one_copy`).
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
        # one worker gains nothing from slice copies, and pays a job each
        self.one_copy = nodes == 1
        super().__init__(
            program, registry,
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            trace=trace,
            option_states=option_states,
            # Worker threads complete jobs (and so invoke managers and
            # splice) concurrently: every controller entry point locks.
            # Uncontended at nodes=1, where no job takes it.
            lock=threading.RLock(),
            # ... and only worker threads run jobs at once: at nodes=1
            # the streams take no lock either
            concurrent_jobs=nodes > 1,
        )
        #: the workers' central FIFO; None at nodes=1 (no workers)
        self.queue: JobQueue | None = JobQueue() if nodes > 1 else None
        self._failure: BaseException | None = None
        self._start_time = 0.0

    # -- execution --------------------------------------------------------------------

    def _execute(self, job: Job, worker: int) -> None:
        plan = self.node_plans[job.node_id]
        tracing = self.tracer.enabled
        if tracing:
            start = time.perf_counter()
        if plan.steps:
            plan.run(job.iteration)
        elif plan.manager is not None:
            qname, phase = plan.manager
            with self._lock:
                self.managers[qname].invoke(job.iteration, phase)
        # barriers: nothing to do
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
        queue produced — completions append their ready jobs behind the
        ones already waiting — but no job or completion takes the
        coordinator's lock and nothing is handed between threads.  A
        component exception (or a ``KeyboardInterrupt``) leaves
        :meth:`run` from here.
        """
        scheduler = self.scheduler
        complete = scheduler.complete
        managers = self.managers
        tracing = self.tracer.enabled
        ready = deque(scheduler.start())
        while ready:
            job = ready.popleft()
            # looked up per job: a splice inside complete() installs a
            # new configuration's plans
            plan = self.node_plans[job.node_id]
            if tracing:
                self._execute(job, 0)
            elif plan.steps:
                # NodePlan.run's loop, without its frame
                iteration = job.iteration
                for run, ctx in plan.steps:
                    ctx.iteration = iteration
                    run(ctx)
            elif plan.manager is not None:
                # no lock: nothing else runs while a manager does
                qname, phase = plan.manager
                managers[qname].invoke(job.iteration, phase)
            complete(job, ready)
        if not scheduler.done:
            raise SchedulingError(
                "dataflow stalled: no job is ready but "
                f"{scheduler.in_flight} iteration(s) are in flight"
            )

    def _run_threads(self) -> None:
        """``nodes >= 2``: worker threads share the central job queue."""
        with self._lock:
            initial = self.scheduler.start()
            done_immediately = self.scheduler.done
        self.queue.push_all(initial)
        if done_immediately:
            self.queue.drain()
        threads = [
            threading.Thread(
                target=self._worker, args=(i,), name=f"hinch-worker-{i}",
                daemon=True,
            )
            for i in range(self.nodes)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._failure is not None:
            raise self._failure

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components."""
        self._start_time = time.perf_counter()
        if self.nodes == 1:
            self._run_inline()
        else:
            self._run_threads()
        elapsed = time.perf_counter() - self._start_time
        stream_stats = {
            name: self.streams.stream(name).stats for name in self.streams.names
        }
        return RunResult(
            completed_iterations=self.scheduler.completed_iterations,
            elapsed_seconds=elapsed,
            reconfig_count=self.scheduler.reconfig_count,
            trace=self.tracer,
            components=dict(self.host.live),
            stream_stats=stream_stats,
            events_handled=sum(m.events_handled for m in self.managers.values()),
            events_ignored=sum(m.events_ignored for m in self.managers.values()),
            workers_spawned=self.nodes,
        )

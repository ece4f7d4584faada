"""ThreadedRuntime: Hinch executing for real on worker threads.

This is the *correctness* backend: components compute actual data (numpy
frames, JPEG bitstreams...), streams carry it, managers reconfigure live.
``nodes`` worker threads pop jobs from the central queue — under CPython's
GIL this yields concurrency, not parallel speedup; performance curves come
from the SpaceCAKE simulator (:mod:`repro.spacecake`).  Graph build,
managers and reconfiguration are the shared
:class:`~repro.hinch.engine.Coordinator`; this module adds the job queue,
the worker threads and the lock that lets them share it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SchedulingError
from repro.hinch.component import Component, JobContext
from repro.hinch.engine import ComponentHost, Coordinator
from repro.hinch.fusion import FusedChain, run_fused
from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.shm import SharedPlanePool
from repro.hinch.tracing import TraceEvent, Tracer

__all__ = ["ThreadedRuntime", "RunResult", "ComponentHost"]


@dataclass
class RunResult:
    """Outcome of one application run."""

    completed_iterations: int
    elapsed_seconds: float
    reconfig_count: int
    trace: Tracer
    components: dict[str, Component]
    stream_stats: dict[str, tuple[int, int]]  # name -> (writes, reads)
    events_handled: int = 0
    events_ignored: int = 0
    #: allocation + serialization counters from the plane pool (see
    #: :class:`repro.hinch.shm.PoolStats`); summed across processes on
    #: the process backend
    pool_stats: dict[str, int] = field(default_factory=dict)
    #: worker failures, retries and respawns observed by the process
    #: backend (empty elsewhere); each entry is a dict with at least
    #: ``kind``/``worker``/``detail`` keys — see docs/fault-tolerance.md
    fault_events: list[dict[str, Any]] = field(default_factory=list)
    #: worker slots that actually forked (lazy spawn and elastic resize
    #: mean this can differ from the configured ``--workers`` in either
    #: direction); equals ``nodes`` on the threaded backend
    workers_spawned: int = 0
    #: auto-tuner decisions applied during the run, each a dict with
    #: ``kind``/``reason``/``predicted_fps``/``achieved_fps`` keys
    autotune_events: list[dict[str, Any]] = field(default_factory=list)


class ThreadedRuntime(Coordinator):
    """Run a Program on worker threads with real component execution."""

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
        group_chains: bool = False,
        fuse: bool = False,
        fuse_backend: str = "numpy",
    ) -> None:
        if nodes < 1:
            raise SchedulingError(f"nodes must be >= 1, got {nodes}")
        self.nodes = nodes
        super().__init__(
            program, registry,
            # Process-local plane pool: sliced-writer buffers are recycled
            # across iterations instead of reallocated (same pool class the
            # process backend uses in shared-memory mode).
            pool=SharedPlanePool(shared=False),
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            trace=trace,
            option_states=option_states,
            group_chains=group_chains,
            fuse=fuse,
            fuse_backend=fuse_backend,
            # Worker threads complete jobs (and so invoke managers and
            # splice) concurrently: every controller entry point locks.
            lock=threading.RLock(),
        )
        self.queue = JobQueue()
        self._failure: BaseException | None = None
        self._start_time = 0.0

    # -- execution --------------------------------------------------------------------

    def _execute(self, job: Job, worker: int) -> None:
        node = self.pg.graph.node(job.node_id)
        start = time.perf_counter()
        member_times: list[tuple[str, float, float]] | None = None
        if node.kind == "task":
            payload = node.payload
            if isinstance(payload, FusedChain):
                # One dispatch for the whole chain; intermediate planes
                # stay local to this job (repro.hinch.fusion).
                member_times = run_fused(
                    payload,
                    job.iteration,
                    self.streams,
                    self.broker,
                    self.pg.aliases,
                    self.host.live,
                    stop_requester=self._request_stop,
                    cache=self._fused_caches.setdefault(job.node_id, {}),
                )
            else:
                # Grouped nodes carry a tuple of instances: run them
                # back-to-back as one scheduled entity (paper §4.1).
                instances = (
                    payload if isinstance(payload, tuple) else (payload,)
                )
                for instance in instances:
                    component = self.host.live[instance.instance_id]
                    ctx = JobContext(
                        instance,
                        job.iteration,
                        self.streams,
                        self.broker,
                        self.pg.aliases,
                        stop_requester=self._request_stop,
                    )
                    component.run(ctx)
        elif node.kind in ("manager_enter", "manager_exit"):
            manager = self.managers[node.payload]
            with self._lock:
                manager.invoke(job.iteration, node.kind.removeprefix("manager_"))
        # barriers: nothing to do
        end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer.record(
                TraceEvent(
                    node_id=job.node_id,
                    iteration=job.iteration,
                    worker=worker,
                    start=start,
                    end=end,
                    kind=node.kind,
                )
            )
            if member_times:
                # constituent-node attribution inside the fused job
                for member_id, m_start, m_end in member_times:
                    self.tracer.record(
                        TraceEvent(
                            node_id=member_id,
                            iteration=job.iteration,
                            worker=worker,
                            start=m_start,
                            end=m_end,
                            kind="fused_member",
                        )
                    )

    def _request_stop(self) -> None:
        with self._lock:
            self.scheduler.request_stop()

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
                done = self.scheduler.done
            self.queue.push_all(ready)
            if done:
                self.queue.drain()

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components."""
        self._start_time = time.perf_counter()
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
            pool_stats=self.pool.stats.as_dict(),
            workers_spawned=self.nodes,
        )

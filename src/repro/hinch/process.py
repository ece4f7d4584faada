"""ProcessRuntime: Hinch on worker *processes* — real multi-core execution.

The threaded backend is the correctness reference but cannot speed up
CPU-bound kernels under CPython's GIL.  This backend keeps the paper's
execution model bit-for-bit — one central job queue, automatic load
balancing, quiescent-drain reconfiguration — and moves only the kernel
execution across process boundaries:

* The **dispatcher** (the calling process) owns everything stateful that
  defines the semantics: the :class:`~repro.hinch.scheduler.DataflowScheduler`,
  the :class:`~repro.hinch.manager.ManagerRuntime`s, the event broker,
  the :class:`~repro.hinch.stream.StreamStore` and the
  :class:`~repro.hinch.shm.SharedPlanePool`.  Manager invocations run
  inline on the dispatcher (traced as worker ``-1``).
* **Workers** (:mod:`repro.hinch.worker`; this module is the dispatcher)
  hold mirror component instances (same splice membership as the
  dispatcher, maintained by broadcast) and do nothing but execute
  ``(iteration, node)`` jobs pulled from the central queue — the paper's
  "work goes wherever there is a free processor" policy, with the
  dispatcher handing the FIFO head to any idle worker.

Frame transport is zero-copy: stream values cross the control pipes as
:class:`~repro.hinch.shm.Packed` descriptors a few hundred bytes long,
while the pixels live in ``multiprocessing.shared_memory`` planes that
both sides map directly.  A data-parallel region of row-contract classes
runs as one copy, as on threads (:attr:`Coordinator.paper_graph`); the
copies of any other sliced class, running on different cores, share one
output plane per (stream, iteration) — exactly the whole-frame slot
buffer of the threaded backend, now visible across processes.  Workers
never allocate planes themselves; they RPC the dispatcher
(``rpc_alloc`` / ``rpc_ensure``) when a job needs one, which keeps the
pool's free lists single-threaded and the ``pipeline_depth`` memory
bound intact.  Every control message is one plain pickle; the
message list is in :mod:`repro.hinch.worker`.

A lost worker ends the run, as a failed job does on every executor:
EOF on its control pipe, its process sentinel or a failed send raises
:class:`~repro.errors.WorkerFailure` naming the worker, the job it had
not acknowledged and its exit code, and the ``finally`` of :meth:`run`
stops the other workers and unlinks every shared segment.  Nothing is
retried and nothing watches the clock: a hung kernel hangs the run, as
it does on threads.  Component state reaches the dispatcher job by job
(:meth:`~repro.hinch.component.Component.checkpoint_state`).

Dispatch overhead is **amortized** with three cooperating mechanisms,
always on:

* **Job leases** — the dispatcher grows the FIFO head into a lease of
  up to :data:`LEASE_SIZE` jobs per worker: further ready jobs from the
  queue surplus, then — only while no other worker sits idle —
  *speculative* follow-ons along the dataflow
  (:meth:`~repro.hinch.scheduler.DataflowScheduler.extract_followons`)
  whose only missing dependencies are earlier lease members — they hold
  worker-locally because the lease runs in order.  One pickle out;
  records stream back per job (completions announce immediately, so
  dependent work reaches *other* workers mid-lease), the last one
  flagged as such.
* **Worker-resident stream slots** — values a worker produced (or
  mapped via ``ensure``) stay live worker-side until their iteration
  retires; a lease that reads them ships a name token, not the plane.
  The dispatcher additionally pre-resolves learned ``ensure`` profiles,
  so a sliced writer's shared output plane ships with its lease.
* **Slice affinity** — each task node (in particular every replica of
  a sliced parblock) sticks to the worker that first ran it while that
  worker is idle, keeping resident slots and caches warm.

Every build also runs the chain compiler
(:func:`~repro.hinch.fusion.fuse_chains`) after pair fusion: a job here
pays a pickle and a pipe message, so fewer, larger jobs win on every
workload (docs/performance.md, "What each feature earns").

Requires a ``fork``-capable platform (Linux): workers inherit the
compiled :class:`~repro.core.program.Program`, the component registry
and the dispatcher's component mirrors by address-space copy, so nothing
about the application itself is pickled.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SchedulingError, StreamError, WorkerFailure
from repro.hinch.component import Component
from repro.hinch.engine import Coordinator
from repro.hinch.jobqueue import Job
from repro.hinch.runtime import RunResult, run_result
from repro.hinch.shm import (
    Packed, PlaneRef, SharedPlanePool, recv_framed, send_framed,
)
from repro.hinch.worker import _WORKER_STAT_KEYS, _worker_entry

__all__ = ["ProcessRuntime", "LEASE_SIZE"]

#: most jobs one lease ships to a worker
LEASE_SIZE = 4


class _Lease:
    """Dispatcher-side record of one batch of jobs shipped to a worker.

    ``deferred[i]`` lists the stream reads of job *i* whose accounting
    waits until its record arrives (the values did not exist
    dispatcher-side at assembly); ``done`` counts the records already
    acknowledged, so ``jobs[done]`` is the job a lost worker held.
    """

    __slots__ = ("jobs", "deferred", "done")

    def __init__(self, jobs: list[Job], deferred: list[list[str]]) -> None:
        self.jobs = jobs
        self.deferred = deferred
        self.done = 0


class ProcessRuntime(Coordinator):
    """Run a Program on worker processes with real parallel execution.

    Drop-in for :class:`~repro.hinch.runtime.ThreadedRuntime` (``workers``
    replaces ``nodes``); produces bit-identical outputs because every
    semantic decision — job readiness, load balancing, event handling,
    reconfiguration — is made by the same single-threaded dispatcher
    state machines the threaded backend uses under its lock.

    ``workers`` sizes the pool once for the whole run: every slot forks
    when :meth:`run` starts, whatever the host's core count.  A worker
    inherits the installed configuration, the coordinator's
    configuration cache and its component mirrors, so it builds a
    configuration only when it first splices to one the dispatcher had
    not built before the fork.

    The dispatcher is single-threaded, so its central queue is a plain
    ``deque``: a completion appends the jobs it readies.
    With the queue empty, no worker busy and the scheduler not done,
    :meth:`run` raises :class:`~repro.errors.SchedulingError` ("dataflow
    stalled") instead of waiting for a worker that has nothing to send.

    ``batch`` and ``fuse`` are no longer options: every lease holds up
    to :data:`LEASE_SIZE` jobs and every build runs the chain compiler.
    They accept only the values that always apply (4, True), for
    callers written when they were options; anything else raises
    :class:`~repro.errors.SchedulingError`.

    A worker lost mid-run ends it with
    :class:`~repro.errors.WorkerFailure` (module docstring).
    """

    fuses_chains = True

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        workers: int = 2,
        pipeline_depth: int = 5,
        max_iterations: int,
        trace: bool = False,
        option_states: Mapping[str, bool] | None = None,
        batch: int = LEASE_SIZE,
        fuse: bool = True,
    ) -> None:
        if workers < 1:
            raise SchedulingError(f"workers must be >= 1, got {workers}")
        if batch != LEASE_SIZE or fuse is not True:
            raise SchedulingError(
                f"ProcessRuntime(batch={batch!r}, fuse={fuse!r}): both "
                f"options were removed; leases always hold up to "
                f"{LEASE_SIZE} jobs and the chain compiler always runs"
            )
        self.workers = workers
        super().__init__(
            program, registry,
            pool=SharedPlanePool(shared=True),
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            trace=trace,
            option_states=option_states,
        )
        #: the central FIFO of ready jobs; only the dispatcher's thread
        #: touches it, so it is a plain deque
        self.queue: deque[Job] = deque()
        self._worker_pool_stats = {k: 0 for k in _WORKER_STAT_KEYS}
        self._ctx: Any = None
        #: slot -> control pipe / process handle, from run() start to its
        #: end (empty otherwise: a request before run() reaches the
        #: workers through the mirrors they fork with)
        self._conns: list[Connection] = []
        self._procs: list[Any] = []
        self._idle: set[int] = set()
        self._busy: dict[int, _Lease] = {}
        #: node_id -> preferred worker slot (slice affinity: replica k of
        #: a sliced parblock keeps landing on the worker that holds its
        #: planes and resident slots warm, while that worker is idle)
        self._affinity: dict[str, int] = {}
        #: iteration -> stream name -> worker slots holding the value
        #: live (resident-slot tokens replace plane re-shipping)
        self._resident: dict[int, dict[str, set[int]]] = {}
        #: node_id -> the streams its jobs ensure_buffer, learned from
        #: ensure RPCs; lets leases pre-resolve slot planes
        self._ensure_profile: dict[str, list[str]] = {}

    # -- SchedulerHooks ------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)
        # The planes behind these slots are back on the free lists, so
        # worker-resident views of them are no longer referenceable.
        self._resident.pop(iteration, None)

    def _after_splice(self, added: list[str], removed: list[str]) -> None:
        # Node identities and stream geometries may change across the
        # splice: drop everything learned about the old graph.  (Resident
        # slots are already gone — reconfiguration happens at quiescence,
        # after every in-flight iteration released its streams.)
        self._affinity.clear()
        self._ensure_profile.clear()
        # The graph is quiescent (no jobs in flight), so every worker is
        # idle and will process the splice before its next job.
        self._broadcast(("splice", dict(self._target_states)))

    # -- ReconfigController --------------------------------------------------

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        # Dispatcher mirrors track parameter state (they are what
        # RunResult.components exposes) ...
        super().send_reconfigure_request(manager, request)
        # ... and every worker applies the request to its own mirrors,
        # possibly mid-job of an unrelated component (same concurrency
        # the threaded backend exhibits at nodes > 1).
        self._broadcast(("reconfigure", manager, request))

    def _broadcast(self, msg: tuple[Any, ...]) -> None:
        """Send ``msg`` to every worker of the running pool."""
        for slot in range(len(self._conns)):
            self._send(slot, msg)

    def _send(self, slot: int, msg: tuple[Any, ...]) -> None:
        """Send ``msg`` to one worker; a failed send means it is lost."""
        try:
            send_framed(self._conns[slot], msg, self.pool.stats)
        except OSError:
            raise self._lost(slot, "stopped reading its pipe") from None

    # -- dispatch ------------------------------------------------------------

    def _gather_inputs(
        self, node: Any, iteration: int, worker: int
    ) -> tuple[dict[str, Packed], tuple[str, ...], list[str]]:
        """Resolve every input stream value a job needs.

        Returns ``(shipped, resident, deferred)``:

        * ``shipped`` — name -> :class:`Packed` planes that must cross
          the pipe (the worker does not hold them);
        * ``resident`` — names the worker already holds live (it produced
          or mapped them), referenced by token only;
        * ``deferred`` — reads (with per-port multiplicity) whose values
          do not exist dispatcher-side yet because the producer is an
          earlier member of the same speculative lease; their ``get``
          accounting replays when the lease completes, keeping stream
          counters bit-identical to the threaded backend.

        One ``get`` per (instance, input port), mirroring the threaded
        backend's per-copy ``job.read`` counters.  Streams produced by an
        earlier member of a grouped chain stay worker-local and are
        skipped.
        """
        instances = node.members
        produced: set[str] = set()
        aliases = self.pg.aliases
        for instance in instances:
            ports = self.registry[instance.class_name].ports
            for port in ports.outputs:
                raw = instance.streams.get(port)
                if raw is not None:
                    produced.add(aliases.get(raw, raw))
        shipped: dict[str, Packed] = {}
        resident: list[str] = []
        deferred: list[str] = []
        holders = self._resident.get(iteration, {})
        for instance in instances:
            ports = self.registry[instance.class_name].ports
            for port in ports.inputs:
                raw = instance.streams.get(port)
                if raw is None:
                    continue
                name = aliases.get(raw, raw)
                if name in produced:
                    continue
                stream = self.streams.stream(name)
                if not stream.has(iteration):
                    # Producer is an earlier job of this very lease: the
                    # worker will hold the value by the time this job
                    # runs; account for the read at lease completion.
                    deferred.append(name)
                    if name not in resident:
                        resident.append(name)
                    continue
                value = stream.get(iteration)
                if worker in holders.get(name, ()):
                    if name not in resident:
                        resident.append(name)
                    continue
                if not isinstance(value, Packed):  # pragma: no cover
                    raise StreamError(
                        f"stream {name!r}: non-transportable slot value "
                        f"{type(value).__name__}"
                    )
                shipped[name] = value
        return shipped, tuple(resident), deferred

    def _mark_resident(self, iteration: int, name: str, worker: int) -> None:
        self._resident.setdefault(iteration, {}).setdefault(
            name, set()
        ).add(worker)

    def _pre_ensure(
        self, node_id: str, iteration: int, worker: int
    ) -> dict[str, PlaneRef] | None:
        """Resolve a job's ``ensure_buffer`` planes at dispatch time.

        Once a node's ensure profile is known (recorded from its first
        ensure RPC), the dispatcher performs the slot allocation itself —
        the same :meth:`Stream.ensure_buffer` call the RPC handler makes,
        so write accounting is unchanged — and
        ships the :class:`PlaneRef` with the lease, eliminating one RPC
        round-trip per slice copy per iteration.
        """
        profile = self._ensure_profile.get(node_id)
        if not profile:
            return None
        ensured: dict[str, PlaneRef] = {}
        for name in profile:
            ensured[name] = self._ensure_slot(name, iteration, node_id)
            self._mark_resident(iteration, name, worker)
        return ensured

    def _ensure_slot(self, name: str, iteration: int, node: str) -> PlaneRef:
        """The shared plane of ``name``'s slot in ``iteration``: its solved
        format, allocated from the pool by the first copy to ask."""
        stream = self.streams.stream(name)
        packed = stream.ensure_buffer(
            iteration,
            lambda: self.pool.pack_plane(
                self.pool.acquire(*stream.expected)[1]),
            writer=node,
        )
        # ensure planes are stream-owned: released with their iteration.
        return packed.refs[0]

    def _run_local(self, job: Job) -> None:
        """Execute a control node (manager/barrier) on the dispatcher."""
        start = time.perf_counter()
        plan = self.node_plans[job.node_id]
        plan.run(job.iteration)
        if self.tracer.enabled:
            self.tracer.record_job(job.node_id, job.iteration, -1, start,
                                   time.perf_counter(), plan.kind)
        self.scheduler.complete(job, self.queue)

    def _pump(self) -> None:
        """Hand the FIFO head to idle workers; run control nodes inline.

        Jobs are popped only while a worker is idle, and a control job
        keeps its FIFO position, which is what makes reconfiguration
        timing deterministic at ``workers=1``.  The popped head seeds a
        *lease* that :meth:`_dispatch_lease` extends with further ready
        jobs and speculative follow-ons.

        The head is never held back: every worker slot forked at start,
        so an idle slot always takes it, whatever the host's core count.
        It returns with the queue empty or no worker idle, so when no
        worker is busy either, :meth:`run` knows the dataflow stalled.
        """
        queue = self.queue
        while self._idle and queue:
            job = queue.popleft()
            if self.pg.graph.node(job.node_id).kind != "task":
                self._run_local(job)
                continue
            worker = self._pick_worker(job)
            self._idle.discard(worker)
            self._dispatch_lease(worker, job)

    def _assemble_lease(self, worker: int, head: Job) -> _Lease:
        """Grow ``head`` into a lease of up to :data:`LEASE_SIZE` jobs.

        Two extension sources, in priority order:

        1. *Ready* jobs already queued, taken only from the surplus the
           idle workers cannot absorb (never starving another idle
           worker), preferring this worker's affinity nodes and never
           scanning past a control-node job (manager invocations keep
           their FIFO position).
        2. *Speculative* follow-ons from
           :meth:`~repro.hinch.scheduler.DataflowScheduler.extract_followons`
           — successors whose only missing dependencies are earlier lease
           members, which hold worker-locally because the lease runs in
           order.
        """
        jobs = [head]
        graph = self.pg.graph
        # at most the surplus the other idle workers cannot absorb
        room = min(LEASE_SIZE - 1, len(self.queue) - len(self._idle))
        for job in self.queue:
            if len(jobs) > room or graph.node(job.node_id).kind != "task":
                break  # never reorder across a control job
            if self._affinity.get(job.node_id, worker) == worker:
                jobs.append(job)
        for job in jobs[1:]:
            self.queue.remove(job)

        # A speculated job is bound to *this* worker, so while idle workers
        # remain, speculate only pipeline extensions — a node's next
        # iteration can never overlap its current one, so chaining it
        # forfeits no parallelism — and leave fan-out successors to
        # announce normally so they can run concurrently elsewhere
        # (blocking-kernel stages in particular must spread, not chain).
        # With every worker busy, chaining successors too is free — the
        # work is serialized anyway and each round-trip saved is pure
        # profit.
        if len(jobs) < LEASE_SIZE:

            def is_eligible(node_id: str) -> bool:
                return graph.node(node_id).kind == "task"

            followons = self.scheduler.extract_followons(
                jobs, LEASE_SIZE - len(jobs), is_eligible=is_eligible,
                pipeline_only=bool(self._idle),
            )
            jobs.extend(followons)
        return _Lease(jobs, [[] for _ in jobs])

    def _dispatch_lease(self, worker: int, head: Job) -> None:
        """Assemble and ship one lease to ``worker``."""
        lease = self._assemble_lease(worker, head)
        entries: list[tuple] = []
        for index, job in enumerate(lease.jobs):
            node = self.pg.graph.node(job.node_id)
            shipped, resident, deferred = self._gather_inputs(
                node, job.iteration, worker
            )
            lease.deferred[index] = deferred
            ensured = self._pre_ensure(job.node_id, job.iteration, worker)
            entries.append(
                (job.iteration, job.node_id, shipped, resident, ensured)
            )
            self._affinity.setdefault(job.node_id, worker)
        self._busy[worker] = lease
        self._send(worker, ("lease", entries,
                            self.scheduler.lowest_live_iteration))

    def _pick_worker(self, job: Job) -> int:
        """Choose an idle worker for the FIFO head.

        Sliced parblock replicas (and every other task node) get sticky
        *affinity*: the worker that first ran a node is preferred, so its
        resident planes and warm caches are reused and the dispatcher
        ships tokens instead of pixel planes.  Otherwise the pick is
        ``min(idle)``.
        """
        affinity = self._affinity.get(job.node_id)
        if affinity in self._idle:
            return affinity
        return min(self._idle)

    # -- worker message handling ---------------------------------------------

    def _on_message(self, worker: int, msg: tuple[Any, ...]) -> None:
        tag = msg[0]
        if tag == "done":
            _, record, last = msg
            self._record_done(worker, record, last)
        elif tag == "rpc_alloc":
            self._send(worker, ("rpc", self.pool.acquire_raw(msg[1])))
        elif tag == "rpc_ensure":
            _, node_id, name, iteration = msg
            ref = self._ensure_slot(name, iteration, node_id)
            # Learn the node's ensure profile: from the next lease on,
            # the dispatcher resolves this slot at assembly and ships
            # the ref with the lease — no RPC round-trip.
            profile = self._ensure_profile.setdefault(node_id, [])
            if name not in profile:
                profile.append(name)
            self._mark_resident(iteration, name, worker)
            self._send(worker, ("rpc", ref))
        elif tag == "error":
            raise self._worker_error(worker, msg[1], msg[2])
        else:
            raise SchedulingError(
                f"dispatcher got unexpected message {tag!r} from worker "
                f"{worker}"
            )

    def _record_done(self, worker: int, record: tuple, last: bool) -> None:
        """Absorb one streamed job record from a worker's lease.

        Records arrive — and are applied — in lease order over the FIFO
        pipe, so deferred read accounting for a consumer always replays
        after its producer's ``put``, and event/checkpoint ordering
        matches a job-at-a-time dispatcher exactly.  Completions are
        announced immediately (dependent work can go to *other* workers
        mid-lease).  The final record returns the worker to the idle set.
        """
        lease = self._busy[worker]
        if lease.done >= len(lease.jobs):
            raise SchedulingError(
                f"worker {worker} returned more records than its lease of "
                f"{len(lease.jobs)}"
            )
        job = lease.jobs[lease.done]
        deferred = lease.deferred[lease.done]
        (iteration, node_id, outputs, events, stop, start, end,
         state_updates) = record
        if job.iteration != iteration or job.node_id != node_id:
            raise SchedulingError(
                f"worker {worker} completed {node_id}@{iteration}, "
                f"expected {job.node_id}@{job.iteration}"
            )
        lease.done += 1
        # Replay reads whose values did not exist at assembly (their
        # producer was an earlier member of this lease) — the producer's
        # put has landed by now, so stream counters stay bit-identical
        # to the threaded backend.
        for name in deferred:
            self.streams.stream(name).get(iteration)
        for name, packed in outputs.items():
            self.streams.stream(name).put(iteration, packed, writer=node_id)
            self._mark_resident(iteration, name, worker)
        for qname, event in events:
            self.broker.post(qname, event)
        for instance_id, delta in state_updates.items():
            component = self.host.live.get(instance_id)
            if component is not None:
                component.merge_state(delta)
        if stop:
            self.scheduler.request_stop()
        if self.tracer.enabled:
            self.tracer.record_job(node_id, iteration, worker, start, end)
        if last:
            if lease.done != len(lease.jobs):
                raise SchedulingError(
                    f"worker {worker} finished its lease after "
                    f"{lease.done} of {len(lease.jobs)} record(s)"
                )
            self._busy.pop(worker)
            self._idle.add(worker)
        self.scheduler.complete(job, self.queue)

    @staticmethod
    def _worker_error(
        worker: int, exc: BaseException | None, tb: str
    ) -> BaseException:
        """Build the exception for a worker ``("error", exc, tb)`` report.

        The remote traceback travels as a string (the real frames died
        with the worker); it is attached as the ``__cause__`` — a
        :class:`~repro.errors.WorkerFailure` carrying the text — and,
        where the interpreter supports it, as an exception note, so the
        cross-process failure is debuggable from the dispatcher side
        while the original exception type still reaches the caller.
        """
        cause = WorkerFailure(
            f"worker {worker} failed", worker=worker, remote_traceback=tb
        )
        if isinstance(exc, BaseException):
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"remote traceback (worker {worker}):\n{tb}")
            exc.__cause__ = cause
            return exc
        return cause

    # -- worker lifecycle ----------------------------------------------------

    def _spawn_workers(self) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise SchedulingError(
                "ProcessRuntime needs a fork-capable platform; use "
                "ThreadedRuntime instead"
            ) from None
        for slot in range(self.workers):
            self._spawn_one(slot)

    def _spawn_one(self, slot: int) -> None:
        """Fork the worker in ``slot``.

        The worker inherits the installed configuration, every one cached
        so far and the dispatcher's component mirrors as they stand,
        reconfigure requests sent before :meth:`run` included.  The child
        closes the dispatcher ends it inherits, its own and every earlier
        slot's: a worker holding one would keep that pipe open after the
        dispatcher closes it, and its owner would never see EOF on a
        failed run.  Fork children exit via ``os._exit`` (multiprocessing
        bootstrap), so the dispatcher pool copy they inherit never runs
        finalizers and cannot unlink live shared segments.
        """
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=([parent, *self._conns], child, slot,
                  self.configuration(self.pg.option_states),
                  self.configuration, self.host),
            name=f"hinch-proc-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns.append(parent)
        self._procs.append(proc)
        self._idle.add(slot)

    def _lost(self, slot: int, reason: str) -> WorkerFailure:
        """The error that ends a run whose worker in ``slot`` is gone.

        ``job`` is the first lease member the worker had not
        acknowledged, if it held a lease; the message carries the
        worker's exit code.
        """
        lease = self._busy.get(slot)
        job = None
        held = ""
        if lease is not None:
            head = lease.jobs[lease.done]
            job = (head.iteration, head.node_id)
            held = f" holding {head.node_id}@{head.iteration}"
        proc = self._procs[slot]
        proc.join(timeout=5)
        return WorkerFailure(
            f"worker {slot} {reason} (exit code {proc.exitcode}){held}; "
            "a lost worker ends the run",
            worker=slot,
            job=job,
        )

    # -- main loop helpers ---------------------------------------------------

    def _service_conn(self, slot: int) -> None:
        """Drain every buffered message from one worker's pipe."""
        conn = self._conns[slot]
        while True:
            try:
                if not conn.poll():
                    return
                msg = recv_framed(conn)
            except (EOFError, OSError):
                raise self._lost(slot, "closed its pipe") from None
            self._on_message(slot, msg)

    def _service_ready(self, ready: list[Any]) -> None:
        sentinels = {proc.sentinel: slot
                     for slot, proc in enumerate(self._procs)}
        for obj in ready:
            slot = sentinels.get(obj)
            if slot is None:
                self._service_conn(self._conns.index(obj))
                continue
            # Process exited: what it sent first still counts (an error
            # report names the real cause), then the run ends.
            self._service_conn(slot)
            raise self._lost(slot, "exited")

    # -- shutdown ------------------------------------------------------------

    def _shutdown(self, *, graceful: bool) -> None:
        deferred: BaseException | None = None
        if graceful:
            for conn in self._conns:
                try:
                    send_framed(conn, ("stop",), self.pool.stats)
                except Exception:
                    pass
            for slot, conn in enumerate(self._conns):
                try:
                    while True:
                        msg = recv_framed(conn)
                        tag = msg[0]
                        if tag == "bye":
                            # Component state arrived job by job with the
                            # records; only the pool counters remain.
                            stats = msg[1]
                            for key in _WORKER_STAT_KEYS:
                                self._worker_pool_stats[key] += stats[key]
                            break
                        if tag == "error":
                            # A worker failing *during* stop (while it
                            # builds its bye) must surface, not vanish
                            # into the drain; finish cleanup, then raise.
                            error = self._worker_error(slot, msg[1], msg[2])
                            if deferred is None:
                                deferred = error
                            break
                        # Anything else is a stale in-flight message (an
                        # rpc whose reply the worker no longer needs);
                        # drained without effect.
                except (EOFError, OSError):
                    pass
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        self._idle.clear()
        self.pool.close()
        if deferred is not None:
            raise deferred

    # -- run -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components.

        On the main thread, a SIGTERM whose handler is still the default
        arrives as :class:`KeyboardInterrupt` while the run lasts, as
        SIGINT does: its default action would end the process without
        the ``finally`` that stops the workers and unlinks the segments.
        A worker keeps the default action
        (:func:`~repro.hinch.worker._worker_entry`).
        """
        sigterm = (threading.current_thread() is threading.main_thread()
                   and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)
        if sigterm:
            signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            return self._run()
        finally:
            if sigterm:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def _run(self) -> RunResult:
        start_time = time.perf_counter()
        failed = False
        try:
            self._spawn_workers()
            self.queue.extend(self.scheduler.start())
            self._pump()
            while self._busy:
                self._service_ready(wait(
                    [*self._conns, *(proc.sentinel for proc in self._procs)]
                ))
                self._pump()
            if not self.scheduler.done:
                # _pump left the queue empty and no worker holds a job
                self._raise_stalled()
            if self.queue:
                raise SchedulingError(
                    f"{len(self.queue)} job(s) still queued after the "
                    "scheduler reported done: their completions would be lost"
                )
        except BaseException:
            failed = True
            raise
        finally:
            self._shutdown(graceful=not failed)
        elapsed = time.perf_counter() - start_time
        pool_stats = self.pool.stats.as_dict()
        for key in _WORKER_STAT_KEYS:
            pool_stats[key] += self._worker_pool_stats[key]
        return run_result(self, elapsed, pool_stats=pool_stats,
                          workers_spawned=self.workers)

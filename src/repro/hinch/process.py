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
both sides map directly.  Sliced data-parallel copies running on
different cores share one output plane per (stream, iteration) — exactly
the whole-frame slot buffer of the threaded backend, now visible across
processes.  Workers never allocate planes themselves; they RPC the
dispatcher (``rpc_alloc`` / ``rpc_ensure``) when a job needs one, which
keeps the pool's free lists single-threaded and the ``pipeline_depth``
memory bound intact.  Every control message is one plain pickle; the
message list is in :mod:`repro.hinch.worker`.

The dispatcher also owns **failure semantics** (the coordinator, not the
components, decides what a crash means): it tracks each worker's
in-flight job and shared-memory leases, and on worker death — EOF on the
control pipe, the process sentinel firing, or a per-job ``watchdog``
timeout — it reclaims the leased planes into the pool, re-queues the job
at the FIFO head with a bounded retry budget, and either respawns a
replacement worker or degrades onto the survivors.  Component state is
checkpointed job-by-job (:meth:`~repro.hinch.component.Component.
checkpoint_state`), so collected output survives a crash bit-for-bit.
Deterministic failures can be scripted with :mod:`repro.hinch.faults`.

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
(:func:`~repro.hinch.fusion.fuse_chains`) after pair fusion, with
``min(workers, cores)`` as its parallel headroom: a job here pays a
pickle and a pipe message, so fewer, larger jobs win on every workload
(docs/performance.md, "What each feature earns").

A job's streamed record is its only acknowledgement: a worker that dies
mid-lease acknowledged exactly the records that arrived (the pipe is
FIFO), so members from the first missing record onward are retried
job-by-job at the FIFO head — speculative members are instead retracted
back to the scheduler's normal readiness path — and checkpoint deltas
apply exactly once.

Requires a ``fork``-capable platform (Linux): workers inherit the
compiled :class:`~repro.core.program.Program` and component registry by
address-space copy, so nothing about the application itself is pickled.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Mapping, Sequence

from repro.core.program import Program
from repro.errors import SchedulingError, StreamError, WorkerFailure
from repro.hinch.component import Component
from repro.hinch.engine import Coordinator
from repro.hinch.faults import FaultInjector, FaultSpec, coerce_injector
from repro.hinch.jobqueue import Job
from repro.hinch.runtime import RunResult
from repro.hinch.shm import (
    Packed, PlaneRef, SharedPlanePool, recv_framed, send_framed,
)
from repro.hinch.stream import AGAINST_SLOT, check_geometry
from repro.hinch.tracing import TraceEvent
from repro.hinch.worker import _WORKER_STAT_KEYS, _worker_entry

__all__ = ["ProcessRuntime", "LEASE_SIZE"]

#: most jobs one lease ships to a worker
LEASE_SIZE = 4


class _Lease:
    """Dispatcher-side record of one batch of jobs shipped to a worker.

    ``speculative[i]`` marks jobs added by
    :meth:`~repro.hinch.scheduler.DataflowScheduler.extract_followons`
    (their dependencies are earlier lease members); ``deferred[i]`` lists
    the stream reads of job *i* whose accounting waits until its record
    arrives (the values did not exist dispatcher-side at assembly);
    ``done`` counts the records already acknowledged — on worker death,
    members from ``done`` onward never ran and are retried or retracted.
    """

    __slots__ = ("jobs", "speculative", "deferred", "done")

    def __init__(
        self,
        jobs: list[Job],
        speculative: list[bool],
        deferred: list[list[str]],
    ) -> None:
        self.jobs = jobs
        self.speculative = speculative
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
    inherits the installed configuration and the coordinator's
    configuration cache, so it builds a configuration only when it
    first splices to one the dispatcher had not built before the fork.

    The dispatcher is single-threaded, so its central queue is a plain
    ``deque`` (like the inline loop of ``ThreadedRuntime(nodes=1)``): a
    completion appends the jobs it readies, a retry goes to the head.
    With the queue empty, no worker busy and the scheduler not done,
    :meth:`run` raises :class:`~repro.errors.SchedulingError` ("dataflow
    stalled") instead of waiting for a worker that has nothing to send.

    ``batch`` and ``fuse`` are no longer options: every lease holds up
    to :data:`LEASE_SIZE` jobs and every build runs the chain compiler.
    They accept only the values that always apply (4, True), for
    callers written when they were options; anything else raises
    :class:`~repro.errors.SchedulingError`.

    Fault-tolerance knobs:

    * ``watchdog`` — per-job wall-clock budget in seconds; within a
      lease each streamed record resets the window.  A worker holding
      one job longer is presumed wedged, killed, and the lease's
      unacknowledged jobs retried.  ``None`` (default) disables the
      watchdog; worker *death* is still detected immediately via pipe
      EOF / process sentinels.
    * ``max_retries`` — how many times one ``(iteration, node)`` job may
      be re-issued after losing its worker before the run fails with a
      structured :class:`~repro.errors.WorkerFailure`.
    * ``respawn`` — replace dead workers (default) or degrade onto the
      survivors; with no survivor left the run fails.
    * ``faults`` — a scripted failure plan (spec string, list of
      :class:`~repro.hinch.faults.FaultSpec`, or a
      :class:`~repro.hinch.faults.FaultInjector`) for testing.
    """

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
        watchdog: float | None = None,
        max_retries: int = 2,
        respawn: bool = True,
        faults: str | Sequence[FaultSpec] | FaultInjector | None = None,
    ) -> None:
        if workers < 1:
            raise SchedulingError(f"workers must be >= 1, got {workers}")
        if batch != LEASE_SIZE or fuse is not True:
            raise SchedulingError(
                f"ProcessRuntime(batch={batch!r}, fuse={fuse!r}): both "
                f"options were removed; leases always hold up to "
                f"{LEASE_SIZE} jobs and the chain compiler always runs"
            )
        if watchdog is not None and watchdog <= 0:
            raise SchedulingError(f"watchdog must be > 0 seconds, got {watchdog}")
        if max_retries < 0:
            raise SchedulingError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.watchdog = watchdog
        self.max_retries = max_retries
        self.respawn = respawn
        self.fault_injector = coerce_injector(faults)
        try:
            cores = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cores = os.cpu_count() or 1
        # workers-vs-cores ceiling handed to the chain compiler's
        # profitability guard: fusing a sliced pair forfeits pipeline
        # overlap exactly when more workers than slice copies could run
        # its members
        self.chain_headroom = min(workers, cores)
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
        #: slot -> control pipe / process handle (entries are *replaced*
        #: on respawn, the slot id is stable)
        self._conns: list[Connection] = []
        self._procs: list[Any] = []
        self._idle: set[int] = set()
        self._busy: dict[int, _Lease] = {}
        #: slots currently backed by a live worker process
        self._live: set[int] = set()
        #: slot -> monotonically increasing worker incarnation id; retry
        #: exclusion is per-incarnation so a respawned worker is eligible
        #: for the job its predecessor died on
        self._incarnation: list[int] = []
        self._next_incarnation = 0
        #: slot -> planes RPC-allocated during the current job (ownership
        #: moves to the stream slots on "done"; reclaimed on failure)
        self._leases: dict[int, list[PlaneRef]] = {}
        #: slot -> watchdog deadline (perf_counter) for the current job
        self._deadlines: dict[int, float] = {}
        #: (iteration, node_id) -> failed attempts so far
        self._attempts: dict[tuple[int, str], int] = {}
        #: (iteration, node_id) -> worker incarnations that failed it
        self._excluded: dict[tuple[int, str], set[int]] = {}
        #: instance id -> reconfigure requests its dispatcher mirror got
        #: since the instance was created; a worker forked later replays
        #: exactly these onto its fresh mirror (an instance torn down by
        #: a splice loses its entry: recreated, it starts clean)
        self._requests: dict[str, list[str]] = {}
        #: dispatched task jobs (1-based), the fault injector's clock
        self._dispatched_tasks = 0
        self._respawns = 0
        self.fault_events: list[dict[str, Any]] = []
        #: node_id -> preferred worker slot (slice affinity: replica k of
        #: a sliced parblock keeps landing on the worker that holds its
        #: planes and resident slots warm, while that worker is idle)
        self._affinity: dict[str, int] = {}
        #: iteration -> stream name -> worker slots holding the value
        #: live (resident-slot tokens replace plane re-shipping)
        self._resident: dict[int, dict[str, set[int]]] = {}
        #: node_id -> [(stream, shape, dtype)] ensure_buffer profile,
        #: learned from ensure RPCs; lets leases pre-resolve slot planes
        self._ensure_profile: dict[str, list[tuple[str, tuple, str]]] = {}

    # -- SchedulerHooks ------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)
        # The planes behind these slots are back on the free lists, so
        # worker-resident views of them are no longer referenceable.
        self._resident.pop(iteration, None)

    def _after_splice(self, added: list[str], removed: list[str]) -> None:
        # A torn-down instance takes its request history with it: if a
        # later splice recreates it, it starts clean, as on threads.
        # Dropped before the broadcast, so a worker respawned by a send
        # failure below forks with the post-splice history too.
        for instance_id in removed:
            self._requests.pop(instance_id, None)
        # Node identities and stream geometries may change across the
        # splice: drop everything learned about the old graph.  (Resident
        # slots are already gone — reconfiguration happens at quiescence,
        # after every in-flight iteration released its streams.)
        self._affinity.clear()
        self._ensure_profile.clear()
        # The graph is quiescent (no jobs in flight), so every worker is
        # idle and will process the splice before its next job.  self.pg
        # is already the new graph, so a worker respawned by a send
        # failure here forks with the post-splice option states baked in.
        self._broadcast(("splice", dict(self._target_states)))

    # -- ReconfigController --------------------------------------------------

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        # Dispatcher mirrors track parameter state (they are what
        # RunResult.components exposes) ...
        super().send_reconfigure_request(manager, request)
        # ... and every worker applies the request to its own mirrors,
        # possibly mid-job of an unrelated component (same concurrency
        # the threaded backend exhibits at nodes > 1).  Recorded first,
        # per mirror that got it: a worker respawned mid-broadcast forks
        # with it, and future respawns rebuild mirror state from it.
        for member in self.program.managers[manager].members:
            if member in self.host.live:
                self._requests.setdefault(member, []).append(request)
        self._broadcast(("reconfigure", manager, request))

    def _broadcast(self, msg: tuple[Any, ...]) -> None:
        """Send ``msg`` to every live worker, absorbing worker death.

        A failed send means the worker is gone; it is handled like any
        other failure (lease reclamation, retry, respawn).  A worker
        respawned *during* the broadcast is deliberately skipped — it was
        forked from current dispatcher state, request history included,
        so it is already up to date.
        """
        for slot in sorted(self._live):
            try:
                send_framed(self._conns[slot], msg, self.pool.stats)
            except OSError:
                self._worker_failed(slot, "send failed (broken pipe)")

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
        so write accounting and geometry validation are unchanged — and
        ships the :class:`PlaneRef` with the lease, eliminating one RPC
        round-trip per slice copy per iteration.
        """
        profile = self._ensure_profile.get(node_id)
        if not profile:
            return None
        ensured: dict[str, PlaneRef] = {}
        for name, shape, dtype in profile:
            ensured[name] = self._ensure_slot(
                name, iteration, shape, dtype, node=node_id
            )
            self._mark_resident(iteration, name, worker)
        return ensured

    def _ensure_slot(
        self,
        name: str,
        iteration: int,
        shape: tuple,
        dtype: str,
        node: str | None = None,
    ) -> PlaneRef:
        stream = self.streams.stream(name)
        stream.check_expected(iteration, tuple(shape), dtype, node)
        packed = stream.ensure_buffer(
            iteration,
            factory=lambda: self.pool.pack_plane(
                self.pool.acquire(tuple(shape), dtype)[1]
            ),
        )
        # ensure planes are stream-owned, not worker-leased: the slot
        # survives the worker and is released with its iteration.
        ref = packed.refs[0]
        check_geometry(name, iteration, node, shape, dtype,
                       (ref.shape, ref.dtype), AGAINST_SLOT)
        return ref

    def _run_local(self, job: Job, node: Any) -> None:
        """Execute a control node (manager/barrier) on the dispatcher."""
        start = time.perf_counter()
        if node.kind in ("manager_enter", "manager_exit"):
            manager = self.managers[node.payload]
            manager.invoke(job.iteration, node.kind.removeprefix("manager_"))
        if self.tracer.enabled:
            self.tracer.record_job(job.node_id, job.iteration, -1, start,
                                   time.perf_counter(), node.kind)
        self.scheduler.complete(job, self.queue)

    def _pump(self) -> None:
        """Hand the FIFO head to idle workers; run control nodes inline.

        Jobs are popped only while a worker is idle, and a control job
        keeps its FIFO position, which is what makes reconfiguration
        timing deterministic at ``workers=1``.  The popped head seeds a
        *lease* that :meth:`_dispatch_lease` extends with further ready
        jobs and speculative follow-ons.

        Retried jobs prefer a worker incarnation that has not already
        failed them (a deterministic kernel crash should not burn the
        whole retry budget on one wedged worker); in a fault-free run the
        exclusion map is empty and the pick stays ``min(idle)``, so
        dispatch order — and with it bit-identical output — is unchanged.

        The head is never held back: every worker slot forked at start,
        so an idle slot always takes it, whatever the host's core count.
        It returns with the queue empty or no worker idle, so when no
        worker is busy either, :meth:`run` knows the dataflow stalled.
        """
        queue = self.queue
        while self._idle and queue:
            job = queue.popleft()
            node = self.pg.graph.node(job.node_id)
            if node.kind != "task":
                self._run_local(job, node)
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
        incarnation = self._incarnation[worker]
        graph = self.pg.graph
        # at most the surplus the other idle workers cannot absorb
        room = min(LEASE_SIZE - 1, len(self.queue) - len(self._idle))
        for job in self.queue:
            if len(jobs) > room or graph.node(job.node_id).kind != "task":
                break  # never reorder across a control job
            excluded = self._excluded.get((job.iteration, job.node_id))
            if excluded and incarnation in excluded:
                continue
            if self._affinity.get(job.node_id, worker) == worker:
                jobs.append(job)
        for job in jobs[1:]:
            self.queue.remove(job)
        speculative = [False] * len(jobs)

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
            speculative.extend([True] * len(followons))
        return _Lease(jobs, speculative, [[] for _ in jobs])

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
            self._dispatched_tasks += 1
            fault = None
            if self.fault_injector is not None:
                fault = self.fault_injector.directive(self._dispatched_tasks)
            entries.append(
                (job.iteration, job.node_id, shipped, resident, ensured,
                 fault)
            )
            self._affinity.setdefault(job.node_id, worker)
        self._busy[worker] = lease
        if self.watchdog is not None:
            # Per-job budget: each record resets the window, so a lease
            # of n jobs never waits n windows for a wedged first job.
            self._deadlines[worker] = time.perf_counter() + self.watchdog
        try:
            send_framed(
                self._conns[worker],
                ("lease", entries, self.scheduler.lowest_live_iteration),
                self.pool.stats,
            )
        except OSError:
            # Worker died between going idle and this dispatch; the
            # lease is in _busy so the normal failure path retries it.
            self._worker_failed(worker, "send failed (broken pipe)")

    def _pick_worker(self, job: Job) -> int:
        """Choose an idle worker for the FIFO head.

        Sliced parblock replicas (and every other task node) get sticky
        *affinity*: the worker that first ran a node is preferred, so its
        resident planes and warm caches are reused and the dispatcher
        ships tokens instead of pixel planes.  Otherwise the pick is
        ``min(idle)``.
        """
        excluded = self._excluded.get((job.iteration, job.node_id))
        if excluded:
            eligible = [
                w for w in self._idle if self._incarnation[w] not in excluded
            ]
        else:
            eligible = list(self._idle)
        if eligible:
            affinity = self._affinity.get(job.node_id)
            if affinity is not None and affinity in eligible:
                return affinity
            return min(eligible)
        return min(self._idle)

    # -- worker message handling ---------------------------------------------

    def _on_message(self, worker: int, msg: tuple[Any, ...]) -> None:
        tag = msg[0]
        if tag == "done":
            _, record, last = msg
            self._record_done(worker, record, last)
        elif tag == "rpc_alloc":
            ref = self.pool.acquire_raw(msg[1])
            self._leases.setdefault(worker, []).append(ref)
            self._rpc_reply(worker, ref)
        elif tag == "rpc_ensure":
            _, node_id, name, iteration, shape, dtype = msg
            ref = self._ensure_slot(
                name, iteration, tuple(shape), dtype, node=node_id
            )
            # Learn the node's ensure profile: from the next lease on,
            # the dispatcher resolves this slot at assembly and ships
            # the ref with the lease — no RPC round-trip.
            profile = self._ensure_profile.setdefault(node_id, [])
            if name not in {entry[0] for entry in profile}:
                profile.append((name, tuple(shape), dtype))
            self._mark_resident(iteration, name, worker)
            self._rpc_reply(worker, ref)
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
        mid-lease); a record is the only acknowledgement of its job, so
        each checkpoint delta applies exactly once — a worker that died
        mid-lease acknowledged precisely the records that arrived, and
        every later member is retried or retracted.  The final record
        returns the worker to the idle set.
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
        # Acknowledged: planes the worker RPC-allocated for this job now
        # live in stream slots (released per iteration), so they leave
        # the worker's liability list.  The pipe is FIFO, so everything
        # alloc'd so far belongs to jobs acknowledged up to here.
        self._leases.pop(worker, None)
        self._attempts.pop((iteration, node_id), None)
        self._excluded.pop((iteration, node_id), None)
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
            self._deadlines.pop(worker, None)
            self._idle.add(worker)
        elif self.watchdog is not None:
            # Per-job budget: the next lease member gets a fresh window.
            self._deadlines[worker] = time.perf_counter() + self.watchdog
        self.scheduler.complete(job, self.queue)

    def _rpc_reply(self, worker: int, value: Any) -> None:
        try:
            send_framed(self._conns[worker], ("rpc", value), self.pool.stats)
        except OSError:
            self._worker_failed(worker, "send failed (broken pipe)")

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
        self._conns = [None] * self.workers  # type: ignore[list-item]
        self._procs = [None] * self.workers
        self._incarnation = [-1] * self.workers
        for slot in range(self.workers):
            self._spawn_one(slot)

    def _spawn_one(self, slot: int) -> None:
        """(Re)start the worker in ``slot``.

        A respawned worker forks from *current* dispatcher state, so it
        inherits the installed configuration and every one cached so far
        outright.  Its mirrors are built fresh from instance descriptors,
        so each replays the reconfigure requests its dispatcher mirror
        received (:attr:`_requests`) — no more, no fewer.
        Fork children exit via ``os._exit`` (multiprocessing bootstrap),
        so the dispatcher pool copy they inherit never runs finalizers —
        a respawn cannot unlink live shared segments.
        """
        parent, child = self._ctx.Pipe()
        incarnation = self._next_incarnation
        self._next_incarnation += 1
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(child, self.program, self.registry, slot,
                  self.configuration(self.pg.option_states),
                  self.configuration, self._requests),
            name=f"hinch-proc-worker-{slot}.{incarnation}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[slot] = parent
        self._procs[slot] = proc
        self._incarnation[slot] = incarnation
        self._live.add(slot)
        self._idle.add(slot)

    def _record_fault(
        self,
        kind: str,
        slot: int,
        incarnation: int,
        job: Job | None,
        detail: str,
    ) -> None:
        self.fault_events.append(
            {
                "kind": kind,
                "worker": slot,
                "incarnation": incarnation,
                "job": (job.iteration, job.node_id) if job else None,
                "detail": detail,
            }
        )
        if self.tracer.enabled:
            now = time.perf_counter()
            self.tracer.record(
                TraceEvent(
                    node_id=job.node_id if job else "",
                    iteration=job.iteration if job else -1,
                    worker=slot,
                    start=now,
                    end=now,
                    kind=kind,
                )
            )

    def _worker_failed(
        self, slot: int, reason: str, *, watchdog: bool = False
    ) -> None:
        """Handle the loss of one worker: reclaim, retry, respawn/degrade.

        Idempotent per incarnation — EOF, sentinel and watchdog detection
        can all observe the same death.  Raises
        :class:`~repro.errors.WorkerFailure` when the in-flight job's
        retry budget is exhausted or no worker remains.
        """
        if slot not in self._live:
            return
        self._live.discard(slot)
        self._idle.discard(slot)
        incarnation = self._incarnation[slot]
        lease = self._busy.pop(slot, None)
        self._deadlines.pop(slot, None)
        # Planes RPC-allocated mid-job die with the worker: back to the
        # free lists (their content is garbage, but so is any recycled
        # plane before its next write).
        for ref in self._leases.pop(slot, ()):
            self.pool.release(ref)
        # Any resident slot this worker held is gone; future leases must
        # ship those planes again from the dispatcher-held stream slots.
        for holders in self._resident.values():
            for workers in holders.values():
                workers.discard(slot)
        try:
            self._conns[slot].close()
        except Exception:
            pass
        proc = self._procs[slot]
        if proc.is_alive():
            proc.kill()  # SIGKILL: a wedged kernel may ignore SIGTERM
            proc.join(timeout=5)
        pending = (
            list(zip(lease.jobs, lease.speculative))[lease.done:]
            if lease is not None else []
        )
        head = pending[0][0] if pending else None
        self._record_fault(
            "watchdog_kill" if watchdog else "worker_failure",
            slot, incarnation, head, reason,
        )
        if pending:
            # Records acknowledged before the death are final (their
            # outputs, events and checkpoint deltas are applied exactly
            # once); only members from ``lease.done`` onward never ran.
            # Walk them back to front so appendleft restores the
            # original FIFO order.  Speculative members never became
            # queue-visible — retracting them re-arms the normal
            # readiness path (the retried predecessors re-emit them on
            # completion) and charges them no retry attempt.
            for job, speculative in reversed(pending):
                if speculative:
                    # The retracted job may already be ready — its lease
                    # predecessors acknowledged before the death — in
                    # which case no future completion re-emits it and it
                    # must be requeued here, in its lease position.
                    for ready in self.scheduler.retract(job):
                        self.queue.appendleft(ready)
                    continue
                key = (job.iteration, job.node_id)
                attempts = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempts
                self._excluded.setdefault(key, set()).add(incarnation)
                if attempts > self.max_retries:
                    raise WorkerFailure(
                        f"job {job.node_id}@{job.iteration} lost its worker "
                        f"{attempts} time(s) (last: worker {slot}, "
                        f"{reason}); retry budget "
                        f"max_retries={self.max_retries} exhausted",
                        worker=slot,
                        job=key,
                    )
                self.scheduler.requeue(job)
                self.queue.appendleft(job)
                self._record_fault("retry", slot, incarnation, job,
                                   f"attempt {attempts + 1}")
        if self.respawn:
            self._spawn_one(slot)
            self._respawns += 1
            self._record_fault("respawn", slot, self._incarnation[slot],
                               None, f"replacing incarnation {incarnation}")
        elif not self._live:
            raise WorkerFailure(
                f"worker {slot} failed ({reason}) and no worker "
                "remains (respawn disabled)",
                worker=slot,
                job=(head.iteration, head.node_id) if head else None,
            )
        else:
            self._record_fault("degrade", slot, incarnation, None,
                               f"{len(self._live)} worker(s) remain")

    # -- main loop helpers ---------------------------------------------------

    def _wait_timeout(self) -> float | None:
        """Timeout for the dispatcher's connection wait.

        ``None`` — block indefinitely — whenever no watchdog deadline is
        armed: worker death wakes the wait through the process sentinel,
        so a periodic heartbeat poll would be pure idle spinning.  With a
        deadline armed, wake exactly when the earliest one expires.
        """
        deadline = min(self._deadlines.values(), default=None)
        if deadline is None:
            return None
        return max(0.0, deadline - time.perf_counter())

    def _service_conn(self, slot: int) -> None:
        """Drain every buffered message from one worker's pipe.

        EOF/pipe errors route to the failure path; messages from a slot
        that stopped being live mid-drain are never processed.
        """
        conn = self._conns[slot]
        incarnation = self._incarnation[slot]
        try:
            while (
                slot in self._live
                and self._incarnation[slot] == incarnation
                and conn.poll()
            ):
                self._on_message(slot, recv_framed(conn))
        except (EOFError, OSError):
            # Only condemn the incarnation this pipe belongs to — the
            # slot may already hold its respawned (innocent) successor.
            if slot in self._live and self._incarnation[slot] == incarnation:
                self._worker_failed(slot, "worker exited unexpectedly (EOF)")

    def _service_ready(self, ready: list[Any]) -> None:
        conn_slots = {id(self._conns[s]): s for s in self._live}
        sentinel_slots = {self._procs[s].sentinel: s for s in self._live}
        for obj in ready:
            slot = conn_slots.get(id(obj))
            if slot is not None:
                self._service_conn(slot)
                continue
            slot = sentinel_slots.get(obj)
            if slot is not None and slot in self._live:
                # Process exited: drain any last buffered messages (a
                # completed job racing the death must win), then declare
                # the failure if the slot is still live.
                self._service_conn(slot)
                if slot in self._live and not self._procs[slot].is_alive():
                    self._worker_failed(slot, "process died")

    def _check_liveness(self) -> None:
        for slot in sorted(self._live):
            if not self._procs[slot].is_alive():
                self._service_conn(slot)
                if slot in self._live:
                    self._worker_failed(slot, "process died")

    def _check_watchdog(self) -> None:
        if self.watchdog is None:
            return
        now = time.perf_counter()
        for slot in [s for s, dl in list(self._deadlines.items())
                     if dl <= now]:
            if slot not in self._live:
                self._deadlines.pop(slot, None)
                continue
            # The job may have completed while we slept — drain first,
            # and only kill if the same deadline is still in force.
            self._service_conn(slot)
            if slot not in self._live or slot not in self._busy:
                continue
            deadline = self._deadlines.get(slot)
            if deadline is None or deadline > now:
                continue
            lease = self._busy[slot]
            current = lease.jobs[lease.done]
            desc = f"{current.node_id}@{current.iteration}"
            remaining = len(lease.jobs) - lease.done - 1
            if remaining:
                desc += f" (+{remaining} batched)"
            self._worker_failed(
                slot,
                f"watchdog: {desc} exceeded {self.watchdog:.3g}s",
                watchdog=True,
            )

    # -- shutdown ------------------------------------------------------------

    def _shutdown(self, *, graceful: bool) -> None:
        deferred: BaseException | None = None
        if graceful:
            for slot in sorted(self._live):
                try:
                    send_framed(self._conns[slot], ("stop",), self.pool.stats)
                except Exception:
                    pass
            for slot in sorted(self._live):
                try:
                    while True:
                        msg = recv_framed(self._conns[slot])
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
            if conn is None:
                continue
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        self._live.clear()
        self._idle.clear()
        self.pool.close()
        if deferred is not None:
            raise deferred

    # -- run -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion; returns statistics and live components."""
        start_time = time.perf_counter()
        failed = False
        try:
            self._spawn_workers()
            self.queue.extend(self.scheduler.start())
            self._pump()
            while self._busy or not self.scheduler.done:
                if not self._busy:
                    # _pump left the queue empty and no worker holds a
                    # job: nothing can ever complete and ready more work
                    raise SchedulingError(
                        "dataflow stalled: no job is ready but "
                        f"{self.scheduler.in_flight} iteration(s) are in flight"
                    )
                objects: list[Any] = [self._conns[s] for s in sorted(self._live)]
                objects.extend(self._procs[s].sentinel for s in sorted(self._live))
                ready = wait(objects, timeout=self._wait_timeout())
                if ready:
                    self._service_ready(list(ready))
                else:
                    self._check_liveness()
                self._check_watchdog()
                self._pump()
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
        if self.fault_injector is not None:
            # Unfired directives are a run-summary fact, not a silent
            # no-op: a spec aimed past the last dispatched job would
            # otherwise look like a fault that was survived.
            for spec in self.fault_injector.remaining:
                self.fault_events.append(
                    {
                        "kind": "unfired",
                        "worker": None,
                        "detail": (
                            f"injected fault {spec.describe()} never fired "
                            "(run dispatched fewer jobs)"
                        ),
                    }
                )
        stream_stats = {
            name: self.streams.stream(name).stats for name in self.streams.names
        }
        pool_stats = self.pool.stats.as_dict()
        for key in _WORKER_STAT_KEYS:
            pool_stats[key] += self._worker_pool_stats[key]
        return RunResult(
            completed_iterations=self.scheduler.completed_iterations,
            elapsed_seconds=elapsed,
            reconfig_count=self.scheduler.reconfig_count,
            trace=self.tracer,
            components=dict(self.host.live),
            stream_stats=stream_stats,
            events_handled=sum(m.events_handled for m in self.managers.values()),
            events_ignored=sum(m.events_ignored for m in self.managers.values()),
            pool_stats=pool_stats,
            fault_events=list(self.fault_events),
            workers_spawned=self.workers,
        )

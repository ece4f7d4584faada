"""Backend-agnostic dataflow scheduling state machine.

Hinch "runs the application in a data flow style by putting a job in [the
central] queue for each component that is ready to be run".  This module
is that readiness logic, shared verbatim by the threaded runtime and by
the SpaceCAKE virtual-time simulator — the two backends differ only in
*who executes* a ready job and *when* completion is reported.

Execution model (DESIGN.md §6):

* The application runs ``max_iterations`` iterations of the task graph;
  node *n* of iteration *k* is ready when all its graph predecessors in
  *k* are done **and** *n* itself finished iteration *k-1* (components
  are stateful and streams are in order).
* Up to ``pipeline_depth`` iterations are in flight concurrently — the
  paper's implicit pipeline parallelism ("the underlying runtime system
  automatically starts multiple concurrent iterations"; five in the
  experiments).
* Reconfiguration: a manager handler calls :meth:`request_reconfig`; the
  scheduler stops admitting iterations, lets the in-flight ones drain
  (the paper: "the amount of parallelism in the application drops until
  the application is run sequentially"), then asks the runtime — via
  :class:`SchedulerHooks` — to splice components and rebuild the task
  graph, and resumes admission.  Components for options being *enabled*
  were already created when the event arrived, off the critical path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.program import ProgramGraph
from repro.errors import SchedulingError
from repro.hinch.jobqueue import Job, make_job

__all__ = ["DataflowScheduler", "SchedulerHooks", "ReconfigPlan"]


@dataclass
class ReconfigPlan:
    """One requested reconfiguration: option-state changes to apply."""

    manager: str
    changes: dict[str, bool]
    reason: str = ""


class SchedulerHooks(Protocol):
    """Callbacks the runtime provides to the scheduler."""

    def on_iteration_complete(self, iteration: int) -> None:
        """All nodes of ``iteration`` finished (release stream slots)."""

    def on_reconfigure(
        self, plans: list[ReconfigPlan], resume_iteration: int
    ) -> ProgramGraph:
        """Graph is quiescent: splice components, return the new graph."""


class _NullHooks:
    def on_iteration_complete(self, iteration: int) -> None:
        pass

    def on_reconfigure(
        self, plans: list[ReconfigPlan], resume_iteration: int
    ) -> ProgramGraph:  # pragma: no cover - only reached with reconfig
        raise SchedulingError("reconfiguration requested but no hooks installed")


@dataclass
class _IterationState:
    remaining: dict[str, int]
    #: nodes of the iteration not yet completed
    left: int
    #: nodes issued as jobs; which of them *completed* needs no set of
    #: its own — a node's jobs are serialised across iterations, so node
    #: *n* is done in iteration *k* exactly when ``_last_done[n] >= k``
    dispatched: set[str] = field(default_factory=set)


class DataflowScheduler:
    """Tracks readiness; emits ready jobs, consumes completions.

    Not thread-safe by itself — the threaded runtime's worker threads
    serialize calls with a lock; its one-node executor and the simulator
    are single-threaded.
    """

    def __init__(
        self,
        pg: ProgramGraph,
        *,
        pipeline_depth: int = 5,
        max_iterations: int,
        hooks: SchedulerHooks | None = None,
    ) -> None:
        if pipeline_depth < 1:
            raise SchedulingError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        if max_iterations < 0:
            raise SchedulingError(f"max_iterations must be >= 0, got {max_iterations}")
        self.pipeline_depth = pipeline_depth
        self.max_iterations = max_iterations
        self.hooks: SchedulerHooks = hooks if hooks is not None else _NullHooks()

        self._set_graph(pg)
        self._iters: dict[int, _IterationState] = {}
        self._last_done: dict[str, int] = {n: -1 for n in pg.graph.node_ids}
        self._next_admit = 0
        self._halted = False
        self._pending_plans: list[ReconfigPlan] = []
        self._completed_iterations = 0
        self._reconfig_count = 0
        self._retries = 0
        self._started = False

    # -- public state ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._iters)

    @property
    def done(self) -> bool:
        return (
            self._started
            and not self._iters
            and not self._pending_plans
            and (self._next_admit >= self.max_iterations or self._halted_forever)
        )

    @property
    def completed_iterations(self) -> int:
        return self._completed_iterations

    @property
    def reconfig_count(self) -> int:
        return self._reconfig_count

    @property
    def retries(self) -> int:
        """Jobs returned to the ready set after their worker was lost."""
        return self._retries

    _halted_forever = False  # set by request_stop

    def _set_graph(self, pg: ProgramGraph) -> None:
        """Install ``pg`` and precompute the per-iteration admission state.

        Admission used to rebuild a full ``{node: in_degree}`` dict (and
        ``complete`` re-queried successor lists) for every iteration; the
        graph only changes on reconfiguration, so both are derived once
        here and the per-admission work collapses to one ``dict.copy()``.
        """
        self.pg = pg
        graph = pg.graph
        self._succ = {n: graph.successors(n) for n in graph.node_ids}
        self._indeg_template = {n: graph.in_degree(n) for n in graph.node_ids}
        self._source_nodes = [n for n, d in self._indeg_template.items() if d == 0]
        self._node_count = len(graph)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> list[Job]:
        """Admit the initial iterations; returns the first ready jobs."""
        if self._started:
            raise SchedulingError("scheduler already started")
        self._started = True
        ready: list[Job] = []
        self._admit(ready)
        return ready

    def complete(
        self, job: Job, ready: list[Job] | deque[Job] | None = None
    ) -> list[Job] | deque[Job]:
        """Record a finished job; returns the newly ready jobs.

        With ``ready`` (a list or deque), they are appended to it in
        readiness order and ``ready`` itself is returned: an executor's
        own FIFO takes them without an intermediate list.
        """
        # Runs once per job on every backend: the iteration state is held
        # in locals and the _check_ready conditions are inlined, so the
        # only calls left are the set/list mutations (make_job runs none).
        iteration = job.iteration
        node_id = job.node_id
        iters = self._iters
        if iteration not in iters:
            raise SchedulingError(
                f"completion for unknown iteration {iteration} ({node_id})"
            )
        state = iters[iteration]
        dispatched = state.dispatched
        if node_id not in dispatched:
            raise SchedulingError(
                f"completion for undispatched job {node_id}@{iteration}"
            )
        last_done = self._last_done
        if last_done[node_id] >= iteration:
            raise SchedulingError(
                f"duplicate completion for {node_id}@{iteration}"
            )
        last_done[node_id] = iteration

        if ready is None:
            ready = []
        # (a) successors within the iteration
        remaining = state.remaining
        prev_iteration = iteration - 1
        for succ in self._succ[node_id]:
            left = remaining[succ] - 1
            remaining[succ] = left
            if (
                left == 0
                and succ not in dispatched
                and last_done[succ] == prev_iteration
            ):
                dispatched.add(succ)
                ready.append(make_job((iteration, succ)))
        # (b) the same node in the next iteration (cross-iteration dep;
        # its last_done condition was just made true above)
        following = iteration + 1
        if following in iters:
            nxt = iters[following]
            if node_id not in nxt.dispatched and nxt.remaining[node_id] == 0:
                nxt.dispatched.add(node_id)
                ready.append(make_job((following, node_id)))

        state.left -= 1
        if not state.left:
            del iters[iteration]
            self._completed_iterations += 1
            self.hooks.on_iteration_complete(iteration)
            self._after_iteration(ready)
        return ready

    def requeue(self, job: Job) -> None:
        """Validate that a lost job may be re-issued (worker failure).

        The job must be *dispatched but not done* — retrying a completed
        job would double-complete it, and retrying a never-dispatched one
        means the runtime's in-flight bookkeeping diverged from the
        scheduler's.  The job stays in the ``dispatched`` set (the caller
        pushes it back onto the queue), so the eventual completion flows
        through :meth:`complete` unchanged.
        """
        state = self._iters.get(job.iteration)
        if state is None:
            raise SchedulingError(
                f"requeue for unknown iteration {job.iteration} ({job.node_id})"
            )
        if job.node_id not in state.dispatched:
            raise SchedulingError(
                f"requeue for undispatched job {job.node_id}@{job.iteration}"
            )
        if self._last_done[job.node_id] >= job.iteration:
            raise SchedulingError(
                f"requeue for completed job {job.node_id}@{job.iteration}"
            )
        self._retries += 1

    def extract_followons(self, lease, limit, is_eligible=None,
                          pipeline_only=False):
        """Speculatively extend a job lease along the dataflow (batching).

        Given ``lease`` — jobs about to be shipped to one worker — return
        up to ``limit`` additional jobs whose *only* missing dependencies
        are earlier members of the (extended) lease: successors within an
        iteration (grouped-chain tails, fan-out consumers whose other
        inputs are already done) and the same node in the next admitted
        iteration (pipeline extension).  Because the queue's readiness
        invariant means a producer and its consumer are never queued
        together, batching deeper than one job per dependency chain is
        only possible speculatively — the worker runs the lease in order,
        so the data dependencies hold worker-locally.

        Chosen jobs are marked ``dispatched`` immediately: the real
        completions of their lease predecessors will decrement in-degrees
        as usual but not re-emit them.  If the worker dies mid-lease the
        runtime calls :meth:`retract` for each speculative job, after
        which the normal completion flow re-emits it.  Admission state is
        never touched, so the ``pipeline_depth`` bound and reconfiguration
        quiescence are exactly as at batch size 1.

        ``is_eligible`` filters candidate node ids (the process runtime
        excludes control nodes, which must run on the dispatcher).

        ``pipeline_only`` restricts extension to the next-iteration jobs
        of nodes already in the lease, skipping same-iteration
        successors.  A node's consecutive iterations can never run
        concurrently (iteration *k+1* waits for *k*), so chaining them
        onto one worker forfeits no parallelism — whereas a successor
        could have run on another worker once its readiness was
        announced.  The process runtime uses this mode while idle
        workers remain.
        """
        if limit <= 0:
            return []
        out: list[Job] = []
        assumed: set[tuple[int, str]] = {
            (j.iteration, j.node_id) for j in lease
        }
        hyp_remaining: dict[tuple[int, str], int] = {}
        hyp_last: dict[str, int] = {}
        frontier = list(lease)
        while frontier and len(out) < limit:
            next_frontier: list[Job] = []
            for job in frontier:
                if len(out) >= limit:
                    break
                iteration, node_id = job.iteration, job.node_id
                hyp_last[node_id] = max(
                    hyp_last.get(node_id, self._last_done[node_id]), iteration
                )
                state = self._iters.get(iteration)
                if state is not None and not pipeline_only:
                    for succ in self._succ[node_id]:
                        key = (iteration, succ)
                        left = hyp_remaining.get(key)
                        if left is None:
                            left = state.remaining[succ]
                        left -= 1
                        hyp_remaining[key] = left
                        if (
                            left == 0
                            and succ not in state.dispatched
                            and key not in assumed
                            and hyp_last.get(succ, self._last_done[succ])
                            == iteration - 1
                            and (is_eligible is None or is_eligible(succ))
                        ):
                            state.dispatched.add(succ)
                            assumed.add(key)
                            cand = make_job((iteration, succ))
                            out.append(cand)
                            next_frontier.append(cand)
                            if len(out) >= limit:
                                break
                nxt = self._iters.get(iteration + 1)
                if nxt is not None and len(out) < limit:
                    key = (iteration + 1, node_id)
                    left = hyp_remaining.get(key, nxt.remaining[node_id])
                    if (
                        left == 0
                        and node_id not in nxt.dispatched
                        and key not in assumed
                        and hyp_last[node_id] == iteration
                        and (is_eligible is None or is_eligible(node_id))
                    ):
                        nxt.dispatched.add(node_id)
                        assumed.add(key)
                        cand = make_job((iteration + 1, node_id))
                        out.append(cand)
                        next_frontier.append(cand)
            frontier = next_frontier
        return out

    def retract(self, job: Job) -> list[Job]:
        """Un-dispatch a speculative lease job whose worker died.

        Records stream back per job in lease order, so a dead worker's
        unacknowledged speculative members are known never to have run;
        clearing the ``dispatched`` mark restores the normal readiness
        path.  The job's *dependencies*, however, may already be done —
        earlier lease members acknowledge individually, and a producer's
        completion lands before the worker dies on a later member — in
        which case no future :meth:`complete` call will ever touch this
        job again.  Readiness is therefore re-checked here: the returned
        jobs (the retracted job itself, at most) are ready *now* and
        must be requeued by the caller; an empty list means a retried
        predecessor will re-emit it through :meth:`complete` as usual.
        """
        state = self._iters.get(job.iteration)
        if state is None:
            raise SchedulingError(
                f"retract for unknown iteration {job.iteration} ({job.node_id})"
            )
        if self._last_done[job.node_id] >= job.iteration:
            raise SchedulingError(
                f"retract for completed job {job.node_id}@{job.iteration}"
            )
        if job.node_id not in state.dispatched:
            raise SchedulingError(
                f"retract for undispatched job {job.node_id}@{job.iteration}"
            )
        state.dispatched.discard(job.node_id)
        ready: list[Job] = []
        self._check_ready(job.node_id, job.iteration, ready)
        return ready

    @property
    def lowest_live_iteration(self) -> int | None:
        """The oldest in-flight iteration (stream slots below it are
        released); ``None`` when the graph is quiescent."""
        return min(self._iters, default=None)

    def request_reconfig(self, plan: ReconfigPlan) -> None:
        """Queue a reconfiguration; admission halts until it is applied."""
        self._pending_plans.append(plan)
        self._halted = True

    def request_stop(self) -> None:
        """Stop admitting new iterations (end of input)."""
        self._halted_forever = True

    # -- internals ---------------------------------------------------------------------

    def _check_ready(
        self, node_id: str, iteration: int, out: list[Job] | deque[Job]
    ) -> None:
        state = self._iters.get(iteration)
        if state is None:
            return
        if node_id in state.dispatched:
            return
        if state.remaining[node_id] != 0:
            return
        if self._last_done[node_id] != iteration - 1:
            return
        state.dispatched.add(node_id)
        out.append(make_job((iteration, node_id)))

    def _admit(self, ready: list[Job] | deque[Job]) -> None:
        while (
            not self._halted
            and not self._halted_forever
            and len(self._iters) < self.pipeline_depth
            and self._next_admit < self.max_iterations
        ):
            k = self._next_admit
            self._next_admit += 1
            self._iters[k] = _IterationState(
                self._indeg_template.copy(), self._node_count
            )
            for node_id in self._source_nodes:
                self._check_ready(node_id, k, ready)

    def _after_iteration(self, ready: list[Job] | deque[Job]) -> None:
        if self._pending_plans and not self._iters:
            # Quiescent: apply every queued plan in arrival order.
            plans, self._pending_plans = self._pending_plans, []
            resume = self._next_admit
            new_pg = self.hooks.on_reconfigure(plans, resume)
            self._set_graph(new_pg)
            self._reconfig_count += 1
            # Every node (kept or spliced) is considered caught-up: all
            # iterations below `resume` have completed globally.
            self._last_done = {n: resume - 1 for n in new_pg.graph.node_ids}
            self._halted = False
        self._admit(ready)

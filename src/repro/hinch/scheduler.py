"""Backend-agnostic dataflow scheduling state machine.

Hinch "runs the application in a data flow style by putting a job in [the
central] queue for each component that is ready to be run".  This module
is that readiness logic, shared verbatim by the three executors — the
threaded runtime, the process dispatcher and the SpaceCAKE virtual-time
simulator — which differ only in *who executes* a ready job and *when*
completion is reported.

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
  Requests that later ones undo before the drain ends are withdrawn
  (:meth:`withdraw_reconfig`): admission resumes with no splice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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

        #: id(graph) -> (graph, its tables); the graph pins its id
        self._tables: dict[int, tuple] = {}
        self._set_graph(pg)
        #: iteration -> [remaining in-degree per node, nodes not yet
        #: completed]: a list literal and a dict display, so admitting an
        #: iteration makes no call
        self._iters: dict[int, list] = {}
        #: node -> the last iteration it completed, and the last one a
        #: job of it was issued for.  A node's jobs are serialised across
        #: iterations, so node *n* is done in iteration *k* exactly when
        #: ``_last_done[n] >= k`` and was issued in *k* exactly when
        #: ``_issued[n] >= k``: no per-iteration set is needed for either
        self._last_done: dict[str, int] = dict.fromkeys(self._node_ids, -1)
        self._issued: dict[str, int] = self._last_done.copy()
        self._next_admit = 0
        self._halted = False
        self._pending_plans: list[ReconfigPlan] = []
        self._completed_iterations = 0
        self._reconfig_count = 0
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

    #: always 0: no executor re-issues a job (a lost process worker ends
    #: the run); kept for ``benchmarks/e2e/layers.py``, which reads it
    retries = 0

    _halted_forever = False  # set by request_stop

    def _set_graph(self, pg: ProgramGraph) -> None:
        """Install ``pg`` and its precomputed admission state.

        Admission used to rebuild a full ``{node: in_degree}`` dict (and
        ``complete`` re-queried successor lists) for every iteration; the
        graph only changes on reconfiguration, so both are derived once
        per graph (a splice back into a memoised configuration looks them
        up) and the per-admission work collapses to one dict display.
        """
        tables = self._tables.get(id(pg))
        if tables is None:
            graph = pg.graph
            node_ids = graph.node_ids
            indeg = {n: graph.in_degree(n) for n in node_ids}
            tables = self._tables[id(pg)] = (
                pg, {n: graph.successors(n) for n in node_ids}, indeg,
                [n for n, d in indeg.items() if d == 0], len(node_ids),
                node_ids,
            )
        (self.pg, self._succ, self._indeg_template, self._source_nodes,
         self._node_count, self._node_ids) = tables

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
        # Runs once per job on every backend: the readiness conditions
        # are inlined and the per-node tables are plain dict stores, so
        # the only calls left are the appends (make_job runs none).
        iteration, node_id = job
        iters = self._iters
        if iteration not in iters:
            raise SchedulingError(
                f"completion for unknown iteration {iteration} ({node_id})"
            )
        issued = self._issued
        if issued[node_id] < iteration:
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
        # (a) successors within the iteration: one not yet issued in it
        # has _issued == _last_done == iteration - 1
        state = iters[iteration]
        remaining = state[0]
        prev_iteration = iteration - 1
        for succ in self._succ[node_id]:
            left = remaining[succ] - 1
            remaining[succ] = left
            if (
                left == 0
                and issued[succ] == prev_iteration
                and last_done[succ] == prev_iteration
            ):
                issued[succ] = iteration
                ready.append(make_job((iteration, succ)))
        # (b) the same node in the next iteration (cross-iteration dep;
        # its last_done condition was just made true above)
        following = iteration + 1
        if (
            issued[node_id] == iteration
            and following in iters
            and iters[following][0][node_id] == 0
        ):
            issued[node_id] = following
            ready.append(make_job((following, node_id)))

        state[1] -= 1
        if not state[1]:
            del iters[iteration]
            self._completed_iterations += 1
            self.hooks.on_iteration_complete(iteration)
            if self._pending_plans and not iters:
                self._splice()
            self._admit(ready)
        return ready

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

        Chosen jobs are marked issued immediately: the real
        completions of their lease predecessors will decrement in-degrees
        as usual but not re-emit them.  Admission state is never touched,
        so the ``pipeline_depth`` bound and reconfiguration quiescence are
        exactly as without speculation.

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
        # a lease job is issued, so the issued check below also keeps
        # the lease itself out of the extension
        issued = self._issued
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
                            left = state[0][succ]
                        left -= 1
                        hyp_remaining[key] = left
                        if (
                            left == 0
                            and issued[succ] < iteration
                            and hyp_last.get(succ, self._last_done[succ])
                            == iteration - 1
                            and (is_eligible is None or is_eligible(succ))
                        ):
                            issued[succ] = iteration
                            cand = make_job((iteration, succ))
                            out.append(cand)
                            next_frontier.append(cand)
                            if len(out) >= limit:
                                break
                nxt = self._iters.get(iteration + 1)
                if nxt is not None and len(out) < limit:
                    key = (iteration + 1, node_id)
                    left = hyp_remaining.get(key, nxt[0][node_id])
                    if (
                        left == 0
                        and issued[node_id] <= iteration
                        and hyp_last[node_id] == iteration
                        and (is_eligible is None or is_eligible(node_id))
                    ):
                        issued[node_id] = iteration + 1
                        cand = make_job((iteration + 1, node_id))
                        out.append(cand)
                        next_frontier.append(cand)
            frontier = next_frontier
        return out

    @property
    def lowest_live_iteration(self) -> int | None:
        """The oldest in-flight iteration (stream slots below it are
        released); ``None`` when the graph is quiescent."""
        return min(self._iters, default=None)

    def request_reconfig(self, plan: ReconfigPlan) -> None:
        """Queue a reconfiguration; admission halts until it is applied."""
        self._pending_plans.append(plan)
        self._halted = True

    def withdraw_reconfig(self) -> None:
        """Drop every queued plan (later requests undid them) and resume
        admission at the next completed iteration, without a splice."""
        self._pending_plans.clear()
        self._halted = False

    def request_stop(self) -> None:
        """Stop admitting new iterations (end of input)."""
        self._halted_forever = True

    # -- internals ---------------------------------------------------------------------

    def _admit(self, ready: list[Job] | deque[Job]) -> None:
        """Admit iterations up to ``pipeline_depth`` in flight and ready
        their sources (in-degree 0: only their own previous iteration
        gates them)."""
        if self._halted or self._halted_forever:
            return
        # every admitted iteration is in flight or completed
        stop = self._completed_iterations + self.pipeline_depth
        if stop > self.max_iterations:
            stop = self.max_iterations
        k = self._next_admit
        issued = self._issued
        while k < stop:
            self._iters[k] = [{**self._indeg_template}, self._node_count]
            for node_id in self._source_nodes:
                if self._last_done[node_id] == k - 1 and issued[node_id] < k:
                    issued[node_id] = k
                    ready.append(make_job((k, node_id)))
            k += 1
        self._next_admit = k

    def _splice(self) -> None:
        """Quiescent: apply every queued plan in arrival order."""
        plans, self._pending_plans = self._pending_plans, []
        resume = self._next_admit
        new_pg = self.hooks.on_reconfigure(plans, resume)
        self._set_graph(new_pg)
        self._reconfig_count += 1
        # Every node (kept or spliced) is considered caught-up: all
        # iterations below `resume` have completed globally.
        self._last_done = dict.fromkeys(self._node_ids, resume - 1)
        self._issued = self._last_done.copy()
        self._halted = False

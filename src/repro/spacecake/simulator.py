"""SimRuntime: Hinch on virtual time, on the SpaceCAKE machine model.

The simulator reuses, unchanged, the pieces that define Hinch's
semantics — the :class:`~repro.hinch.engine.Coordinator` (configuration
build, managers, component lifecycle and splicing) and its
:class:`~repro.hinch.scheduler.DataflowScheduler` (readiness, pipeline
depth, reconfiguration drain) — and replaces only the notion of time: a
job dispatched to a core occupies it for the job's cost in cycles,
computed by the :class:`~repro.spacecake.costmodel.CostModel` plus cache
accounting.

Two execution modes:

* ``execute=False`` (default, used by the benchmarks): components do not
  run; only costs flow.  Components whose class sets ``always_execute``
  (event timers driving reconfiguration experiments) still run.
* ``execute=True``: components run functionally with real data, so tests
  can assert that simulated scheduling produces exactly the same frames
  as the threaded runtime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.program import Program
from repro.errors import SimulationError
from repro.hinch.component import Component
from repro.hinch.engine import Coordinator
from repro.hinch.jobqueue import Job
from repro.hinch.tracing import Tracer
from repro.spacecake.cache import CacheStats
from repro.spacecake.costmodel import CostModel, CostParams
from repro.spacecake.devent import EventEngine
from repro.spacecake.machine import Machine, MachineConfig

__all__ = ["SimRuntime", "SimResult", "JobPlan", "SLOT_BUCKETS"]

#: Region granularity of the cache model: every stream slot is split into
#: this many equal buckets; a job touches the buckets its slice covers.
#: Disjoint slice regions therefore never share cache residency, while a
#: whole-object producer feeding sliced consumers (and vice versa) is
#: classified per region — the behaviours the paper's cache-miss analysis
#: depends on.
SLOT_BUCKETS = 64


def _slot_buckets(slice_info: tuple[int, int] | None) -> range:
    """Bucket indices a component's slice covers (all, when unsliced)."""
    if slice_info is None:
        return range(SLOT_BUCKETS)
    index, total = slice_info
    lo = index * SLOT_BUCKETS // total
    hi = max(lo + 1, (index + 1) * SLOT_BUCKETS // total)
    return range(lo, min(hi, SLOT_BUCKETS))


class JobPlan:
    """Precompiled cost recipe for one task-graph node.

    ``SimRuntime._job_cycles`` used to re-derive, for *every simulated
    job*: the node's kind, its component instances, each instance's
    :class:`~repro.spacecake.costmodel.JobCost`, the alias-resolved
    stream name of every port, the slot-bucket range of the instance's
    slice, and the per-bucket byte count.  None of that depends on the
    iteration or the core — only on the :class:`ProgramGraph` and its
    buffer plan — so a plan is compiled once per node per configuration
    and only the cache accounting remains per-job.  A splice installs
    its configuration's plans (``SimRuntime._rebuild_plans``), compiled
    the first time that configuration is installed.

    ``fixed_cycles``
        Non-None for barrier / manager pseudo-nodes: the whole job cost
        (before the core-speed division).
    ``overhead_cycles``
        Per-job runtime overhead (dispatch + sync), for task nodes.
    ``instances``
        One ``(compute_cycles, traffic)`` pair per grouped component
        instance; ``traffic`` is a tuple of
        ``(stream, bucket_start, bucket_stop, bytes_per_bucket, write)``
        from :meth:`~repro.spacecake.costmodel.CostModel.port_traffic`,
        with the stream name already alias-resolved and the per-bucket
        byte part already truncated to int, exactly as the unbatched
        loop did per job.

    The functional side of a job — which components actually execute at
    completion time — is the node's
    :class:`~repro.hinch.engine.NodePlan`, shared with the real backends.
    """

    __slots__ = ("fixed_cycles", "overhead_cycles", "instances")

    def __init__(
        self,
        *,
        fixed_cycles: float | None = None,
        overhead_cycles: float = 0.0,
        instances: tuple[tuple[float, tuple[tuple[str, int, int, int, bool], ...]], ...] = (),
    ) -> None:
        self.fixed_cycles = fixed_cycles
        self.overhead_cycles = overhead_cycles
        self.instances = instances

    @classmethod
    def compile(cls, node, cost_model: CostModel, overhead_cycles: float,
                aliases: Mapping[str, str],
                planes: Mapping[str, tuple[tuple[int, ...], str]]) -> "JobPlan":
        """Compile the plan for one :class:`TaskNode` under the buffer
        plan ``planes`` (stream -> ``(shape, dtype)``)."""
        params = cost_model.params
        if node.kind == "barrier":
            return cls(fixed_cycles=params.barrier_cycles)
        if node.kind in ("manager_enter", "manager_exit"):
            return cls(fixed_cycles=params.manager_invoke_cycles)
        inst_plans = []
        for instance in node.members:
            buckets = _slot_buckets(instance.slice)
            nbuckets = len(buckets)
            traffic = tuple(
                (
                    aliases.get(stream, stream),
                    buckets.start,
                    buckets.stop,
                    int(t.nbytes / nbuckets),
                    t.write,
                )
                for t in cost_model.port_traffic(instance, planes, aliases)
                if (stream := instance.streams.get(t.port)) is not None
            )
            inst_plans.append(
                (cost_model.job_cost(instance).compute_cycles, traffic))
        return cls(overhead_cycles=overhead_cycles, instances=tuple(inst_plans))


@dataclass
class SimResult:
    """Outcome of one simulated run (times in cycles)."""

    cycles: float
    completed_iterations: int
    reconfig_count: int
    trace: Tracer
    cache_stats: CacheStats
    core_busy_cycles: list[float]
    utilization: float
    components: dict[str, Component]
    jobs_executed: int
    events_handled: int = 0
    components_created: int = 0
    #: (resume_iteration, option states) per applied reconfiguration
    reconfig_log: list[tuple[int, dict[str, bool]]] = field(default_factory=list)

    def option_exposure(self, option: str, *, initial: bool,
                        total_iterations: int) -> int:
        """Iterations spent with ``option`` enabled over the whole run."""
        enabled_iters = 0
        prev = 0
        state = initial
        for resume, states in self.reconfig_log:
            if state:
                enabled_iters += resume - prev
            prev = resume
            state = states.get(option, state)
        if state:
            enabled_iters += total_iterations - prev
        return enabled_iters

    @property
    def nodes(self) -> int:
        return len(self.core_busy_cycles)


class SimRuntime(Coordinator):
    """Simulate a Program on an N-core SpaceCAKE tile."""

    paper_graph = True

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        nodes: int = 1,
        pipeline_depth: int = 5,
        max_iterations: int,
        execute: bool = False,
        cost_params: CostParams | None = None,
        machine: MachineConfig | None = None,
        trace: bool = False,
        option_states: Mapping[str, bool] | None = None,
        group_chains: bool = False,
    ) -> None:
        self.execute = execute
        self.group_chains = group_chains
        # Cost-only mode still runs the components whose *behaviour*
        # drives the experiment (event timers); a plain function, so the
        # node plans hold no reference back to this runtime.
        self._executes = lambda instance: (
            execute or registry[instance.class_name].always_execute)
        self.engine = EventEngine()
        self.machine = Machine(
            machine if machine is not None else MachineConfig(nodes=nodes)
        )
        if machine is not None and machine.nodes != nodes:
            raise SimulationError("nodes and machine.nodes disagree")
        self.cost_model = CostModel(registry, cost_params)
        # Same build as the real backends — format solve, converter
        # insertion, grouping — so the simulator costs the graph they
        # run, except pair fusion and one copy per region
        # (``paper_graph``): the paper had neither, and FIG8-10 cost its
        # unfused, sliced graph.
        super().__init__(
            program, registry,
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            trace=trace,
            option_states=option_states,
        )
        self._pending: deque[Job] = deque()  # the central job queue
        self._stall_until = 0.0  # reconfiguration splice window
        #: latest stall deadline a wakeup is already scheduled for, so a
        #: reconfiguration stall enqueues exactly one pending wakeup no
        #: matter how many blocked dispatches hit it
        self._stall_wakeup_until = 0.0
        self._keys_by_iter: dict[int, set[Any]] = {}
        self.jobs_executed = 0
        self._ran = False
        #: per-job runtime overhead: constant for the whole run (depends
        #: only on the node count)
        self._overhead_cycles = self.cost_model.overhead_cycles(
            nodes=self.machine.nodes
        )
        #: resolved option states -> that configuration's job plans
        self._job_plans: dict[frozenset, dict[str, JobPlan]] = {}
        self._rebuild_plans()

    def _rebuild_plans(self) -> None:
        """Install the current configuration's :class:`JobPlan` per node,
        compiled the first time that configuration is installed."""
        key = frozenset(self.pg.option_states.items())
        if key not in self._job_plans:
            planes = self.configuration(self.pg.option_states).expectations
            self._job_plans[key] = {
                node.node_id: JobPlan.compile(
                    node, self.cost_model, self._overhead_cycles,
                    self.pg.aliases, planes)
                for node in self.pg.graph
            }
        self._plans = self._job_plans[key]

    # -- SchedulerHooks ----------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)
        keys = self._keys_by_iter.pop(iteration, None)
        if keys:
            self.machine.cache.evict_many(keys)

    def _after_splice(self, added: list[str], removed: list[str]) -> None:
        # Splicing happens while the graph is quiescent and stalls the
        # whole tile (the paper: two "simple actions" — add components,
        # synchronize them — but they serialize the machine).
        splice = self.cost_model.params.reconfig_splice_cycles * max(
            1, len(added) + len(removed)
        )
        self._stall_until = max(self._stall_until, self.engine.now + splice)
        self._rebuild_plans()

    # -- cost accounting ------------------------------------------------------------------

    def _job_cycles(self, job: Job, core: int) -> float:
        # All graph-dependent work (kind dispatch, instance grouping, cost
        # lookup, alias resolution, slot bucketing) was precompiled into
        # the node's JobPlan; only the cache accounting is per-job.
        # Grouped nodes (paper §4.1) carry several instances executed
        # back-to-back on one core: one job overhead, and their internal
        # stream traffic naturally hits L1 (write then immediate same-core
        # read of the same keys).
        plan = self._plans[job.node_id]
        speed = self.machine.speed(core)
        fixed = plan.fixed_cycles
        if fixed is not None:
            return fixed / speed
        cycles = plan.overhead_cycles / speed
        iteration = job.iteration
        keyset = self._keys_by_iter.setdefault(iteration, set())
        access_traffic = self.machine.cache.access_traffic
        for compute_cycles, traffic in plan.instances:
            cycles += compute_cycles / speed
            if traffic:
                cycles = access_traffic(core, iteration, traffic, cycles, keyset)
        return cycles

    # -- execution ------------------------------------------------------------------------

    def _dispatch(self) -> None:
        engine = self.engine
        now = engine.now
        if now < self._stall_until:
            # The tile is splicing; try again when it finishes.  Several
            # completions can hit the stall at the same instant — one
            # pending wakeup suffices (and keeps the heap from filling
            # with redundant events during long splice windows).
            if self._stall_wakeup_until < self._stall_until:
                self._stall_wakeup_until = self._stall_until
                engine.schedule_at(self._stall_until, self._dispatch)
            return
        pending = self._pending
        machine = self.machine
        while pending:
            core = machine.acquire_core()
            if core is None:
                return
            job = pending.popleft()
            cycles = self._job_cycles(job, core)
            # A completion record instead of a per-job closure: one small
            # tuple on the heap, dispatched to the single bound handler.
            engine.schedule(cycles, self._finish, (job, core, cycles, now))

    def _finish(self, record: tuple[Job, int, float, float]) -> None:
        """Completion handler for one dispatched job (an engine record)."""
        job, core, cycles, start = record
        self.machine.release_core(core, cycles)
        # the functional side of the job, applied at its completion time:
        # a manager's poll or the (execute/always_execute-filtered)
        # component runs; the common cost-only job has no step
        plan = self.node_plans[job.node_id]
        if plan.steps:
            plan.run(job.iteration)
        self.jobs_executed += 1
        if self.tracer.enabled:
            self.tracer.record_job(job.node_id, job.iteration, core, start,
                                   self.engine.now, plan.kind)
        self.scheduler.complete(job, self._pending)
        self._dispatch()

    def run(self) -> SimResult:
        """Simulate to completion; returns cycle counts and statistics."""
        if self._ran:
            raise SimulationError("SimRuntime instances are single-use")
        self._ran = True
        self._pending.extend(self.scheduler.start())
        self._dispatch()
        cycles = self.engine.run()
        if not self.scheduler.done:
            raise SimulationError(
                "simulation deadlocked: event heap empty but scheduler "
                f"has {self.scheduler.in_flight} iterations in flight"
            )
        return SimResult(
            cycles=cycles,
            completed_iterations=self.scheduler.completed_iterations,
            reconfig_count=self.scheduler.reconfig_count,
            trace=self.tracer,
            cache_stats=self.machine.cache.stats,
            core_busy_cycles=list(self.machine.busy_cycles),
            utilization=self.machine.utilization(cycles) if cycles else 0.0,
            components=dict(self.host.live),
            jobs_executed=self.jobs_executed,
            events_handled=sum(m.events_handled for m in self.managers.values()),
            components_created=self.host.created_total,
            reconfig_log=list(self.reconfig_log),
        )

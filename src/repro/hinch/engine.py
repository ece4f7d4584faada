"""The coordination core: one configuration build, one reconfiguration controller.

XSPCL's claim is that coordination — the graph, the managers, the halt →
drain → splice → resume protocol — is defined once, independently of how
components execute.  This module is that definition:

* :func:`build_configuration` turns ``(program, option states)`` into the
  graph a backend schedules.  Every backend — and every process-backend
  worker, through the cache it inherits at fork — installs exactly what
  it returns, so a spec lint rejects runs nowhere and the solved network
  runs everywhere.
* :class:`NodePlan` is what *running* one node of that graph means: the
  component ``run`` methods to call and the reusable job contexts to call
  them with, compiled once per node per configuration
  (:class:`NodePlans`) so a job re-derives nothing.
* :class:`Coordinator` owns the state every backend needs and implements
  the manager-facing controller and the scheduler's quiescent-splice hook.
  The executors (threads, worker processes, the simulator's virtual
  cores) subclass it and add only how a ready job gets run.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Mapping, NamedTuple

from repro.analysis.formats import (
    auto_insert_converters,
    runtime_expectations,
    solve_formats_or_raise,
)
from repro.core.program import (
    ComponentInstance,
    Program,
    ProgramGraph,
    one_copy_regions,
)
from repro.core.validator import names_slice
from repro.errors import ComponentError
from repro.graph.taskgraph import TaskNode
from repro.hinch.component import Component, JobContext
from repro.hinch.events import Event, EventBroker
from repro.hinch.fusion import (
    FusedChain,
    FusedLocalStore,
    FusedPair,
    fuse_chains,
    fuse_pairs,
    peephole_classes,
)
from repro.hinch.grouping import group_linear_chains
from repro.hinch.manager import ManagerRuntime
from repro.hinch.scheduler import DataflowScheduler, ReconfigPlan
from repro.hinch.shm import SharedPlanePool
from repro.hinch.stream import StreamStore
from repro.hinch.tracing import Tracer

__all__ = [
    "Configuration",
    "build_configuration",
    "NodePlan",
    "NodePlans",
    "ComponentHost",
    "Coordinator",
]


class Configuration(NamedTuple):
    """What :func:`build_configuration` derives for one set of option states."""

    #: the graph to schedule (converters inserted, pairs fused, chains
    #: grouped or fused)
    pg: ProgramGraph
    #: instance overrides: auto-inserted converters and readers rebound
    #: to converted streams (the Program itself is never mutated)
    overrides: dict[str, ComponentInstance]
    #: solved ``stream name -> (shape, dtype)`` buffer contracts
    expectations: dict[str, tuple[tuple[int, ...], str]]


def build_configuration(
    program: Program,
    registry: Mapping[str, type[Component]],
    option_states: Mapping[str, bool] | None,
    *,
    peepholes: frozenset[str] | None = None,
    chain_headroom: int | None = None,
    group_chains: bool = False,
) -> Configuration:
    """Derive the schedulable configuration for ``option_states``.

    Pure and deterministic in its arguments: a process worker that
    splices to a configuration its dispatcher first built after the fork
    builds it again (only the option states cross the pipe) and must
    arrive at the same node ids and overrides, because leases and job
    records name nodes and streams by id.  Callers install the result;
    nothing here touches a runtime.

    ``peepholes`` is the program's
    :func:`~repro.hinch.fusion.peephole_classes`, which a
    :class:`Coordinator` works out once; ``None`` works it out here.  An
    empty set, the simulator's, keeps the unfused graph.  An int
    ``chain_headroom`` adds the chain compiler
    (:func:`~repro.hinch.fusion.fuse_chains`) with that many parallel
    workers as its profitability guard; ``group_chains`` the §4.1
    grouping (:func:`~repro.hinch.grouping.group_linear_chains`).
    """
    pg = program.build_graph(option_states)
    # The reconciled port formats become each stream's authoritative
    # buffer expectation (replacing first-write inference), re-solved per
    # configuration so a splice installs the new configuration's solution.
    # Declarations that do not reconcile (X501/X502/X503) raise here: a
    # lint-rejected spec fails at build on every backend.
    solution = solve_formats_or_raise(program, pg)
    expectations = runtime_expectations(program, pg, solution=solution)
    # X506 sites: bridge convertible dtype mismatches at build time; the
    # rebound reader/converter instances are the overrides.
    pg, overrides, expectations = auto_insert_converters(
        program, pg, registry, expectations, solution
    )
    if peepholes is None:
        peepholes = peephole_classes(program, registry)
    if peepholes:
        pg = fuse_pairs(pg, registry, peepholes)
    if group_chains:
        pg = group_linear_chains(pg)
    if chain_headroom is not None:
        pg, _ = fuse_chains(pg, program, registry, expectations,
                            parallel_headroom=chain_headroom)
    return Configuration(pg, overrides, expectations)


class NodePlan:
    """What running one graph node means under the installed configuration.

    Which instances the node carries, their live component objects, the
    alias-resolved stream behind every port, whether the node is a fused
    pair or chain — none of it depends on the iteration, so it is derived
    once and a job is ``for run, ctx in steps: ctx.iteration = k;
    run(ctx)``.

    The contexts are *reused* from job to job.  That is legal because the
    scheduler never readies node *n* of iteration *k+1* before *n* of *k*
    completed (DESIGN.md §6): a node's jobs are serialized, so a context
    is never live in two jobs at once, on any backend.
    """

    __slots__ = ("kind", "manager", "components", "steps")

    def __init__(
        self,
        node: TaskNode,
        components: Mapping[str, Component],
        streams: Any,
        broker: Any,
        aliases: dict[str, str],
        stop_requester: Callable[[], None] | None,
        runnable: Callable[[ComponentInstance], bool] | None = None,
    ) -> None:
        self.kind = node.kind
        #: ``(qname, phase)`` of a manager pseudo-node, else None; invoking
        #: it is the executor's business (it knows what lock that takes)
        self.manager: tuple[str, str] | None = None
        #: the live component of every instance the node carries
        self.components: tuple[Component, ...] = ()
        #: ``(run, context)`` in execution order; empty for pseudo-nodes
        self.steps: tuple[tuple[Callable[[JobContext], None], JobContext], ...] = ()
        if node.kind != "task":
            if node.kind != "barrier":
                self.manager = (node.payload, node.kind.removeprefix("manager_"))
            return
        instances = node.members
        self.components = tuple(components[i.instance_id] for i in instances)

        def context(instance: ComponentInstance) -> JobContext:
            return JobContext(instance, 0, streams, broker, aliases,
                              stop_requester=stop_requester)

        # exact-type dispatch, no isinstance per node: plans compiled
        # inside run() count towards its per-frame work
        fused = type(instances)
        if fused is FusedPair:
            # One step: the reader class's kernel runs both; the stream
            # between them is never written (repro.hinch.fusion).
            writer, reader = instances
            first, second = self.components
            kernel = type(second).compile_fused_pair(type(first), writer,
                                                     reader)
            self.steps = ((_pair_step(kernel, first, second, context(reader)),
                           context(writer)),)
            return
        if fused is FusedChain:
            # One step: the members back to back over a job-local store
            # for the chain's internal streams (repro.hinch.fusion).
            streams = FusedLocalStore(streams, instances)
            members = tuple((components[i.instance_id].run, context(i))
                            for i in instances)
            self.steps = ((_chain_step(streams.slots, members),
                           members[0][1]),)
            return
        # Grouped nodes carry several instances: run them back to back as
        # one scheduled entity (paper §4.1).
        self.steps = tuple(
            (components[i.instance_id].run, context(i)) for i in instances
            if runnable is None or runnable(i)
        )

    def run(self, iteration: int) -> None:
        """Execute the node's steps for ``iteration``."""
        for run, ctx in self.steps:
            ctx.iteration = iteration
            run(ctx)


def _pair_step(
    kernel: Callable[..., None], first: Component, second: Component,
    second_ctx: JobContext,
) -> Callable[[JobContext], None]:
    """Adapt a ``compile_fused_pair`` kernel to the one-context step shape."""

    def run(ctx: JobContext) -> None:
        second_ctx.iteration = ctx.iteration
        kernel(first, second, ctx, second_ctx)

    return run


def _chain_step(
    slots: dict[str, Any],
    members: tuple[tuple[Callable[[JobContext], None], JobContext], ...],
) -> Callable[[JobContext], None]:
    """Run a fused chain's members as one step, with fresh local slots."""

    def run(ctx: JobContext) -> None:
        slots.clear()  # a job that raised leaves its values behind
        iteration = ctx.iteration
        for member_run, member_ctx in members:
            member_ctx.iteration = iteration
            member_run(member_ctx)
        slots.clear()  # nothing the job held (mapped views) outlives it

    return run


class NodePlans(dict):
    """``node id -> NodePlan`` for one installed configuration.

    Compiled on first use (construction and splices pay nothing for
    nodes that have not run yet; a fused node lowers its kernel then)
    and dropped as a whole with the configuration: a splice changes the
    graph, the alias map and the component objects.  ``streams`` is
    anything with ``.stream(name)``; ``runnable`` filters which instances
    of a node get a step (None: all — its one user, the simulator's
    cost-only mode, never fuses).
    """

    def __init__(
        self,
        pg: ProgramGraph,
        components: Mapping[str, Component],
        streams: Any,
        broker: Any,
        stop_requester: Callable[[], None] | None,
        runnable: Callable[[ComponentInstance], bool] | None = None,
    ) -> None:
        super().__init__()
        self._node = pg.graph.node
        self._args = (components, streams, broker, pg.aliases, stop_requester,
                      runnable)

    def __missing__(self, node_id: str) -> NodePlan:
        plan = self[node_id] = NodePlan(self._node(node_id), *self._args)
        return plan


class ComponentHost:
    """Owns live component objects and applies reconfiguration splices.

    Shared by every backend: the real runtimes create/destroy component
    objects that compute; the simulator reuses the same bookkeeping so
    that creation costs and membership stay identical.
    """

    def __init__(
        self, program: Program, registry: Mapping[str, type[Component]]
    ) -> None:
        self.program = program
        self.registry = registry
        self.live: dict[str, Component] = {}
        self.created_total = 0
        #: the installed :attr:`Configuration.overrides`
        self.overrides: dict[str, ComponentInstance] = {}

    def create(self, instance_id: str) -> Component:
        instance = self.overrides.get(instance_id)
        if instance is None:
            instance = self.program.components[instance_id]
        cls = self.registry[instance.class_name]
        component = cls(instance)  # takes and configures for its slice
        component.setup()
        if instance.reconfigure:
            component.reconfigure(instance.reconfigure)
        self.created_total += 1
        return component

    def populate(self, active: tuple[str, ...]) -> None:
        for instance_id in active:
            self.live[instance_id] = self.create(instance_id)

    def splice(
        self,
        new_active: tuple[str, ...],
        precreated: dict[str, Component],
    ) -> tuple[list[str], list[str]]:
        """Swap membership to ``new_active``; returns (added, removed)."""
        new_set = set(new_active)
        removed = [i for i in self.live if i not in new_set]
        for instance_id in removed:
            self.live.pop(instance_id).teardown()
        added = [i for i in new_active if i not in self.live]
        for instance_id in added:
            component = precreated.pop(instance_id, None)
            if component is None:
                component = self.create(instance_id)
            self.live[instance_id] = component
        return added, removed


def _declares_rows(cls: type[Component]) -> bool:
    """Does ``cls`` override the default (unknown) row contract?"""
    return cls.writes_rows.__func__ is not Component.writes_rows.__func__


class Coordinator:
    """Graph, managers and the reconfiguration protocol of one running Program.

    Implements :class:`~repro.hinch.scheduler.SchedulerHooks` and
    :class:`~repro.hinch.manager.ReconfigController`.  An executor
    subclass may extend any method with work of its own around a
    ``super()`` call; what it never needs to know is the build
    pipeline's order or the pre-create/discard protocol.

    ``lock`` guards the controller entry points for executors whose jobs
    run concurrently with manager invocations (the threaded backend's
    RLock).  ``concurrent_jobs`` says whether two jobs can run at once;
    only then do the streams lock (:mod:`repro.hinch.stream`).  ``pool``
    is the process backend's shared-memory plane pool; the other
    executors pass none, and their streams recycle their own buffers.

    What a build rewrites is the executor's, never the caller's: the
    class attributes below, which a subclass may set on the instance
    before calling ``super().__init__``.
    """

    #: apply pair fusion to every build; the simulator, which costs the
    #: paper's unfused graph, turns it off
    fuses_pairs = True
    #: run the chain compiler with this parallel headroom; ``None`` (threads,
    #: the simulator) never does — only the process backend, whose leases
    #: pay per job, gains from it
    chain_headroom: int | None = None
    #: group linear chains (§4.1); only the simulator's ablation does
    group_chains = False
    #: build from :func:`~repro.core.program.one_copy_regions`: a
    #: data-parallel region whose classes all declare a row contract
    #: (:meth:`Component.writes_rows`) runs as one full-span copy.  Only
    #: the inline executor does: its copies would run one after another,
    #: each paying a job; elsewhere they are the parallelism, or, in the
    #: simulator, what the paper's figures model
    one_copy = False

    def __init__(
        self,
        program: Program,
        registry: Mapping[str, type[Component]],
        *,
        pool: SharedPlanePool | None = None,
        pipeline_depth: int,
        max_iterations: int,
        trace: bool,
        option_states: Mapping[str, bool] | None,
        lock: ContextManager[Any] | None = None,
        concurrent_jobs: bool = False,
    ) -> None:
        if self.one_copy:
            program = one_copy_regions(
                program, lambda name: _declares_rows(registry[name]))
        self.program = program
        self.registry = registry
        self.pipeline_depth = pipeline_depth
        self.max_iterations = max_iterations
        #: the program's pair-kernel classes, worked out once: every
        #: build (splices inside run() included) only reads it
        self._peepholes = (
            peephole_classes(program, registry) if self.fuses_pairs
            else frozenset()
        )
        #: resolved option states -> built configuration: a run that
        #: toggles between a handful of configurations solves, converts,
        #: fuses and groups each once
        self._configurations: dict[frozenset, Configuration] = {}
        self._lock = lock if lock is not None else nullcontext()
        self.broker = EventBroker()
        self.pool = pool
        self.streams = StreamStore(pool, locked=concurrent_jobs)
        self.tracer = Tracer(enabled=trace)
        self.host = ComponentHost(program, registry)

        self.pg: ProgramGraph = self._install(self.configuration(option_states))
        self._target_states: dict[str, bool] = dict(self.pg.option_states)
        self._precreated: dict[str, Component] = {}
        self.host.populate(self.pg.active_components)
        self.managers = {
            qname: ManagerRuntime(info, self.broker, self)
            for qname, info in program.managers.items()
        }
        self.scheduler = DataflowScheduler(
            self.pg,
            pipeline_depth=pipeline_depth,
            max_iterations=max_iterations,
            hooks=self,
        )
        self._install_plans()
        #: (resume_iteration, option states) per applied reconfiguration
        self.reconfig_log: list[tuple[int, dict[str, bool]]] = []

    def configuration(
        self, option_states: Mapping[str, bool] | None
    ) -> Configuration:
        """The configuration for ``option_states``, built once.

        :func:`build_configuration` is a pure function of the option
        states once the program and the executor's rewrites are fixed
        at construction, so its result is memoised on them.  A process
        worker forked from this coordinator looks its splices up here
        too: what the dispatcher built before the fork costs it nothing.
        """
        key = frozenset((option_states or {}).items())
        config = self._configurations.get(key)
        if config is None:
            config = build_configuration(
                self.program,
                self.registry,
                option_states,
                peepholes=self._peepholes,
                chain_headroom=self.chain_headroom,
                group_chains=self.group_chains,
            )
            # keyed by the *resolved* states: what every splice asks for
            key = frozenset(config.pg.option_states.items())
            self._configurations[key] = config
        return config

    def _install(self, config: Configuration) -> ProgramGraph:
        """Make ``config`` this coordinator's; returns its graph."""
        # Overrides must be in place before populate/splice: active ids
        # resolve through them.
        self.host.overrides = config.overrides
        self.streams.set_expectations(config.expectations)
        return config.pg

    def _install_plans(self) -> None:
        """Fresh (empty) node plans for :attr:`pg` and the live components."""
        self.node_plans = NodePlans(
            self.pg, self.host.live, self.streams, self.broker,
            self._request_stop, self._executes,
        )

    def _executes(self, instance: ComponentInstance) -> bool:
        """Does a job of this executor run ``instance``'s component?"""
        return True

    def _request_stop(self) -> None:
        with self._lock:
            self.scheduler.request_stop()

    # -- SchedulerHooks ------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)

    def on_reconfigure(
        self, plans: list[ReconfigPlan], resume_iteration: int
    ) -> ProgramGraph:
        states = dict(self.pg.option_states)
        for plan in plans:
            states.update(plan.changes)
        new_pg = self._install(self.configuration(states))
        added, removed = self.host.splice(
            new_pg.active_components, self._precreated
        )
        # Anything pre-created for a change that was later reverted is
        # discarded here (its option ended up disabled).
        for component in self._precreated.values():
            component.teardown()
        self._precreated.clear()
        self.pg = new_pg
        self._install_plans()
        self._target_states = dict(states)
        self.reconfig_log.append((resume_iteration, dict(states)))
        self._after_splice(added, removed)
        return new_pg

    def _after_splice(self, added: list[str], removed: list[str]) -> None:
        """Executor hook: :attr:`pg` and :attr:`host` are the new configuration."""

    # -- ReconfigController --------------------------------------------------

    def target_option_state(self, option_qname: str) -> bool:
        with self._lock:
            return self._target_states[option_qname]

    def apply_option_changes(self, manager: str, changes: dict[str, bool]) -> None:
        with self._lock:
            effective = {
                opt: state
                for opt, state in changes.items()
                if self._target_states.get(opt) != state
            }
            if not effective:
                return
            self._target_states.update(effective)
            # Pre-create components for options being enabled, while the
            # subgraph is still active (paper §3.4: reduces reconfig
            # time).  In the simulator this costs no tile time — a host
            # CPU concern in the paper's model.
            for opt, state in effective.items():
                if state:
                    for member in self.program.options[opt].members:
                        if (
                            member not in self.host.live
                            and member not in self._precreated
                        ):
                            self._precreated[member] = self.host.create(member)
            self.scheduler.request_reconfig(
                ReconfigPlan(manager=manager, changes=effective)
            )

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        if names_slice(request):
            # a copy's rows are the expander's (and, at one worker, the
            # executor's) to assign: a broadcast would give every copy one
            raise ComponentError(
                f"manager {manager!r}: reconfigure request {request!r} may "
                "not set 'slice' (the expander assigns each data-parallel "
                "copy its rows)"
            )
        with self._lock:
            members = self.program.managers[manager].members
            live = [self.host.live[m] for m in members if m in self.host.live]
        for component in live:
            component.reconfigure(request)

    # -- event injection -----------------------------------------------------

    def post_event(self, queue: str, name: str, payload: Any = None) -> None:
        """Inject an external (user) event."""
        self.broker.post(queue, Event(name=name, payload=payload))

"""The coordination core: one configuration build, one reconfiguration controller.

XSPCL's claim is that coordination — the graph, the managers, the halt →
drain → splice → resume protocol — is defined once, independently of how
components execute.  This module is that definition:

* :func:`build_configuration` turns ``(program, option states)`` into the
  graph a backend schedules.  Every backend — and every process-backend
  worker, after a splice — installs exactly what it returns, so a spec
  lint rejects runs nowhere and the solved network runs everywhere.
* :class:`Coordinator` owns the state every backend needs and implements
  the manager-facing controller and the scheduler's quiescent-splice hook.
  The executors (threads, worker processes, the simulator's virtual
  cores) subclass it and add only how a ready job gets run.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Mapping, NamedTuple

from repro.analysis.formats import (
    auto_insert_converters,
    runtime_expectations,
    solve_formats_or_raise,
)
from repro.core.program import ComponentInstance, Program, ProgramGraph
from repro.hinch.component import Component
from repro.hinch.events import Event, EventBroker
from repro.hinch.fusion import FusionReport, fuse_chains
from repro.hinch.grouping import group_linear_chains
from repro.hinch.manager import ManagerRuntime
from repro.hinch.scheduler import DataflowScheduler, ReconfigPlan
from repro.hinch.shm import SharedPlanePool
from repro.hinch.stream import StreamStore
from repro.hinch.tracing import Tracer

__all__ = ["Configuration", "build_configuration", "ComponentHost", "Coordinator"]


class Configuration(NamedTuple):
    """What :func:`build_configuration` derives for one set of option states."""

    #: the graph to schedule (converters inserted, chains grouped/fused)
    pg: ProgramGraph
    #: instance overrides: auto-inserted converters and readers rebound
    #: to converted streams (the Program itself is never mutated)
    overrides: dict[str, ComponentInstance]
    #: solved ``stream name -> (shape, dtype)`` buffer contracts
    expectations: dict[str, tuple[tuple[int, ...], str]]
    #: what fused and what was refused; None when fusion was not requested
    fusion_report: FusionReport | None


def build_configuration(
    program: Program,
    registry: Mapping[str, type[Component]],
    option_states: Mapping[str, bool] | None,
    *,
    group_chains: bool,
    fuse: bool,
    fuse_backend: str,
    parallel_headroom: int | None,
) -> Configuration:
    """Derive the schedulable configuration for ``option_states``.

    Pure and deterministic in its arguments: the process backend's
    dispatcher and each of its workers call it independently after a
    splice (only the option states cross the pipe) and must arrive at the
    same node ids, overrides and :class:`~repro.hinch.shm.NameInterner`
    table.  Callers install the result; nothing here touches a runtime.
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
    if group_chains:
        pg = group_linear_chains(pg)
    fusion_report = None
    if fuse:
        pg, fusion_report = fuse_chains(
            pg, program, registry, expectations, fuse_backend,
            parallel_headroom=parallel_headroom,
        )
    return Configuration(pg, overrides, expectations, fusion_report)


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
        component = cls(instance)
        component.setup()
        if instance.slice is not None:
            index, total = instance.slice
            component.reconfigure(f"slice={index}/{total}")
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
        # A re-slice can keep an instance id while changing its
        # descriptor (copy 0 of 4 becomes copy 0 of 2): the surviving
        # object still holds the old slice assignment and must be
        # rebuilt.  Only slice-elastic (stateless) components are ever
        # re-sliced, so recreation loses nothing.
        for instance_id in new_active:
            if instance_id in added:
                continue
            instance = self.overrides.get(
                instance_id, self.program.components.get(instance_id)
            )
            component = self.live[instance_id]
            if instance is not None and component.instance != instance:
                component.teardown()
                self.live[instance_id] = self.create(instance_id)
                added.append(instance_id)
        return added, removed


class Coordinator:
    """Graph, managers and the reconfiguration protocol of one running Program.

    Implements :class:`~repro.hinch.scheduler.SchedulerHooks` and
    :class:`~repro.hinch.manager.ReconfigController`.  An executor
    subclass may extend any method with work of its own around a
    ``super()`` call; what it never needs to know is the build
    pipeline's order or the pre-create/discard protocol.

    ``lock`` guards the controller entry points for executors whose jobs
    run concurrently with manager invocations (the threaded backend's
    RLock).  ``parallel_headroom`` is forwarded to every build; an
    executor may change it before a splice (:attr:`_fuse_headroom`).
    """

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
        group_chains: bool,
        fuse: bool,
        fuse_backend: str = "numpy",
        parallel_headroom: int | None = None,
        lock: ContextManager[Any] | None = None,
    ) -> None:
        self.program = program
        self.registry = registry
        self.pipeline_depth = pipeline_depth
        self.max_iterations = max_iterations
        self.group_chains = group_chains
        self.fuse = fuse
        self.fuse_backend = fuse_backend
        self._fuse_headroom = parallel_headroom
        self.fusion_report: FusionReport | None = None
        self._lock = lock if lock is not None else nullcontext()
        self.broker = EventBroker()
        self.pool = pool
        self.streams = StreamStore(pool)
        self.tracer = Tracer(enabled=trace)
        self.host = ComponentHost(program, registry)

        self.pg: ProgramGraph = self._build(option_states)
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
        #: (resume_iteration, option states) per applied reconfiguration
        self.reconfig_log: list[tuple[int, dict[str, bool]]] = []

    def _build(self, option_states: Mapping[str, bool] | None) -> ProgramGraph:
        """Build the configuration for ``option_states`` and install it."""
        config = build_configuration(
            self.program,
            self.registry,
            option_states,
            group_chains=self.group_chains,
            fuse=self.fuse,
            fuse_backend=self.fuse_backend,
            parallel_headroom=self._fuse_headroom,
        )
        # Overrides must be in place before populate/splice: active ids
        # resolve through them.
        self.host.overrides = config.overrides
        self.streams.set_expectations(config.expectations)
        self.fusion_report = config.fusion_report
        # per-fused-node execution caches (intermediate temps, compiled
        # kernels) of an executor that runs fused jobs itself; per-graph,
        # so discarded whenever the graph is rebuilt
        self._fused_caches: dict[str, dict[str, Any]] = {}
        return config.pg

    # -- SchedulerHooks ------------------------------------------------------

    def on_iteration_complete(self, iteration: int) -> None:
        self.streams.release_iteration(iteration)

    def on_reconfigure(
        self, plans: list[ReconfigPlan], resume_iteration: int
    ) -> ProgramGraph:
        self._before_splice(resume_iteration)
        states = dict(self.pg.option_states)
        for plan in plans:
            states.update(plan.changes)
        new_pg = self._build(states)
        added, removed = self.host.splice(
            new_pg.active_components, self._precreated
        )
        # Anything pre-created for a change that was later reverted is
        # discarded here (its option ended up disabled).
        for component in self._precreated.values():
            component.teardown()
        self._precreated.clear()
        self.pg = new_pg
        self._target_states = dict(states)
        self.reconfig_log.append((resume_iteration, dict(states)))
        self._after_splice(added, removed)
        return new_pg

    def _before_splice(self, resume_iteration: int) -> None:
        """Executor hook: the graph is quiescent, nothing is rebuilt yet."""

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
        with self._lock:
            members = self.program.managers[manager].members
            live = [self.host.live[m] for m in members if m in self.host.live]
        for component in live:
            component.reconfigure(request)

    # -- event injection -----------------------------------------------------

    def post_event(self, queue: str, name: str, payload: Any = None) -> None:
        """Inject an external (user) event."""
        self.broker.post(queue, Event(name=name, payload=payload))

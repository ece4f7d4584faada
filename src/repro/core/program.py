"""Expanded programs: the IR between XSPCL and the runtime/simulator.

The expander lowers a validated :class:`~repro.core.ast.Spec` into a
:class:`Program`: every procedure call inlined, every slice/crossdep
parblock replicated, every ``${...}`` placeholder substituted.  What
remains is a tree of *component instances* composed in series/parallel,
plus crossdep regions (non-SP by design) and manager/option containers.

A Program is configuration-polymorphic: :meth:`Program.build_graph`
instantiates the flat :class:`~repro.graph.taskgraph.TaskGraph` and the
stream connection table for one assignment of option states.  The Hinch
runtime calls it again after each reconfiguration — this mirrors the
paper, where glue code runs "at initialization time, or when the program
is reconfigured".

Stream model
------------
A stream carries one whole frame (or packet) per iteration.  Data-parallel
copies of a component *share* their streams and each processes its own
region, exactly as the paper's reconfiguration interface "tell[s] a
component which part of the input it has to process".  Consequently a
stream has one *logical* writer — all slice copies of one definition site
— and any number of readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping

from repro.core.ast import EventHandler, Value
from repro.core.ports import PortSpec
from repro.errors import ReconfigurationError, ValidationError
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "ComponentInstance",
    "StreamTable",
    "StreamEndpoint",
    "ManagerInfo",
    "OptionInfo",
    "Program",
    "ProgramGraph",
    "StreamProblem",
    "stream_problems",
    "one_copy_regions",
    "IRLeaf",
    "IRSeries",
    "IRParallel",
    "IRCrossdep",
    "IRManager",
    "IROption",
]


@dataclass(frozen=True)
class ComponentInstance:
    """One fully-resolved component occurrence.

    ``instance_id`` is globally unique (call scopes joined with ``/``,
    slice copies suffixed ``[i]``); ``definition_id`` strips the slice
    suffix, so all copies of one textual component share it.
    """

    instance_id: str
    definition_id: str
    class_name: str
    params: dict[str, Value]
    streams: dict[str, str]  # port -> global stream name (pre-bypass)
    slice: tuple[int, int] | None = None  # (index, total copies)
    reconfigure: str | None = None
    manager: str | None = None  # nearest enclosing manager (qualified)
    options: tuple[str, ...] = ()  # enclosing options, outermost first
    #: per-binding format overrides (<stream format=...>), substituted
    port_formats: dict[str, str] = field(default_factory=dict)
    #: XML source line of the defining <component> (diagnostics only)
    line: int | None = field(default=None, compare=False, repr=False)
    #: XML source line of each <stream> binding (diagnostics only)
    port_lines: dict[str, int | None] = field(
        default_factory=dict, compare=False, repr=False
    )

    def relabel(self, instance_id: str, slice: tuple[int, int]) -> "ComponentInstance":
        """This instance as another copy of its region: every field the
        same but ``instance_id`` and ``slice``.

        A build makes one per copy, so it fills ``__dict__`` directly:
        ``dataclasses.replace`` goes through ``__init__`` and costs about
        three times as much.
        """
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, instance_id=instance_id, slice=slice)
        return copy


@dataclass(frozen=True)
class StreamEndpoint:
    instance_id: str
    port: str


@dataclass
class StreamTable:
    """Connections of one stream in one active configuration."""

    name: str
    writers: list[StreamEndpoint] = field(default_factory=list)
    readers: list[StreamEndpoint] = field(default_factory=list)


@dataclass(frozen=True)
class OptionInfo:
    qname: str
    manager: str
    default_enabled: bool
    bypasses: tuple[tuple[str, str], ...]  # (src, dst) global stream names
    members: tuple[str, ...]  # component instance ids inside the option


@dataclass(frozen=True)
class ManagerInfo:
    qname: str
    queue: str
    handlers: tuple[EventHandler, ...]  # option fields hold *qualified* names
    options: tuple[str, ...]  # qualified option names owned by this manager
    members: tuple[str, ...]  # component instance ids inside the manager
    enter_id: str = ""
    exit_id: str = ""

    def handlers_for(self, event: str) -> tuple[EventHandler, ...]:
        return tuple(h for h in self.handlers if h.event == event)


# ---------------------------------------------------------------------------
# IR tree
# ---------------------------------------------------------------------------


class IRNode:
    __slots__ = ()


@dataclass(frozen=True)
class IRLeaf(IRNode):
    instance: ComponentInstance


@dataclass(frozen=True)
class IRSeries(IRNode):
    children: tuple[IRNode, ...]


@dataclass(frozen=True)
class IRParallel(IRNode):
    children: tuple[IRNode, ...]


@dataclass(frozen=True)
class IRCrossdep(IRNode):
    """parblocks[j][i] is copy *i* of parblock *j* (paper Fig. 5)."""

    parblocks: tuple[tuple[IRNode, ...], ...]


@dataclass(frozen=True)
class IRManager(IRNode):
    qname: str
    child: IRNode


@dataclass(frozen=True)
class IROption(IRNode):
    qname: str
    child: IRNode


def iter_ir(node: IRNode) -> Iterator[IRNode]:
    yield node
    if isinstance(node, (IRSeries, IRParallel)):
        for child in node.children:
            yield from iter_ir(child)
    elif isinstance(node, IRCrossdep):
        for pb in node.parblocks:
            for copy in pb:
                yield from iter_ir(copy)
    elif isinstance(node, (IRManager, IROption)):
        yield from iter_ir(node.child)


@dataclass
class ProgramGraph:
    """One configuration's executable view of a Program."""

    graph: TaskGraph
    streams: dict[str, StreamTable]
    aliases: dict[str, str]  # pre-bypass stream name -> effective name
    option_states: dict[str, bool]
    active_components: tuple[str, ...]
    #: instance ids inside crossdep regions — their halo edges encode a
    #: sparser ordering than the stream tables suggest, so graph rewrites
    #: (grouping, fusion) must not merge across them
    crossdep_nodes: frozenset[str] = frozenset()


class Program:
    """A fully expanded application, ready to instantiate per configuration."""

    def __init__(
        self,
        name: str,
        root: IRNode,
        components: dict[str, ComponentInstance],
        managers: dict[str, ManagerInfo],
        options: dict[str, OptionInfo],
        registry: Mapping[str, PortSpec],
    ) -> None:
        self.name = name
        self.root = root
        self.components = components
        self.managers = managers
        self.options = options
        self.registry = registry
        #: option-state keys whose stream wiring already validated clean;
        #: building a graph is deterministic per configuration, so the
        #: (expensive, reachability-walking) stream checks run once per
        #: configuration instead of once per build — reconfiguration
        #: toggles between a handful of configurations thousands of times.
        self._validated_states: set[tuple[tuple[str, bool], ...]] = set()

    # -- introspection ------------------------------------------------------

    @property
    def queues(self) -> tuple[str, ...]:
        """All event-queue names: manager queues plus forward targets."""
        names: list[str] = []
        for mgr in self.managers.values():
            if mgr.queue not in names:
                names.append(mgr.queue)
            for h in mgr.handlers:
                if h.action == "forward" and h.target not in names:
                    names.append(h.target)  # type: ignore[arg-type]
        return tuple(names)

    def default_option_states(self) -> dict[str, bool]:
        return {q: o.default_enabled for q, o in self.options.items()}

    # -- configuration instantiation ----------------------------------------

    def build_graph(
        self,
        option_states: Mapping[str, bool] | None = None,
        *,
        check: bool = True,
    ) -> ProgramGraph:
        """Instantiate the task graph + stream table for one configuration.

        ``option_states`` overrides the per-option defaults; unknown names
        are rejected.  The returned graph contains a ``task`` node per
        active component instance, barrier nodes at plural series
        junctions, crossdep edges, and ``manager_enter``/``manager_exit``
        pseudo-nodes bracketing each managed subgraph.

        With ``check=False`` the stream sanity checks are skipped — the
        lint engine uses this to collect *all* problems via
        :func:`stream_problems` instead of failing on the first.
        """
        states = self.default_option_states()
        if option_states:
            unknown = set(option_states) - set(states)
            if unknown:
                raise ReconfigurationError(
                    f"unknown options in configuration: {sorted(unknown)}"
                )
            states.update(option_states)

        graph = TaskGraph()
        counters: dict[str, int] = {}

        def fresh(label: str) -> str:
            c = counters.get(label, 0)
            counters[label] = c + 1
            return label if c == 0 else f"{label}~{c}"

        def connect(sinks: list[str], sources: list[str]) -> None:
            if len(sinks) > 1 and len(sources) > 1:
                barrier = fresh("join")
                graph.add_node(barrier, kind="barrier", weight=0.0)
                for s in sinks:
                    graph.add_edge(s, barrier)
                for t in sources:
                    graph.add_edge(barrier, t)
            else:
                for s in sinks:
                    for t in sources:
                        graph.add_edge(s, t)

        active: list[str] = []
        crossdep_members: set[str] = set()

        def lower(node: IRNode) -> tuple[list[str], list[str]]:
            """Returns (sources, sinks); ([], []) when fully disabled."""
            if isinstance(node, IRLeaf):
                inst = node.instance
                graph.add_node(
                    inst.instance_id,
                    label=inst.instance_id,
                    payload=inst,
                )
                active.append(inst.instance_id)
                return [inst.instance_id], [inst.instance_id]
            if isinstance(node, IRSeries):
                first: list[str] | None = None
                prev: list[str] = []
                for child in node.children:
                    c_src, c_snk = lower(child)
                    if not c_src:
                        continue  # disabled option drops out of the chain
                    if first is None:
                        first = c_src
                    else:
                        connect(prev, c_src)
                    prev = c_snk
                return (first or [], prev)
            if isinstance(node, IRParallel):
                sources: list[str] = []
                sinks: list[str] = []
                for child in node.children:
                    c_src, c_snk = lower(child)
                    sources.extend(c_src)
                    sinks.extend(c_snk)
                return sources, sinks
            if isinstance(node, IRCrossdep):
                mark = len(active)
                region_sources: list[str] = []
                prev_copies: list[tuple[list[str], list[str]]] = []
                for j, pb in enumerate(node.parblocks):
                    copies = [lower(copy) for copy in pb]
                    if j == 0:
                        for c_src, _ in copies:
                            region_sources.extend(c_src)
                    else:
                        n = len(copies)
                        for i, (c_src, _) in enumerate(copies):
                            for k in (i - 1, i, i + 1):
                                if 0 <= k < len(prev_copies):
                                    for snk in prev_copies[k][1]:
                                        for src in c_src:
                                            graph.add_edge(snk, src)
                    prev_copies = copies
                region_sinks = [s for _, snks in prev_copies for s in snks]
                crossdep_members.update(active[mark:])
                return region_sources, region_sinks
            if isinstance(node, IRManager):
                c_src, c_snk = lower(node.child)
                enter = fresh(f"{node.qname}.enter")
                exit_ = fresh(f"{node.qname}.exit")
                graph.add_node(
                    enter, kind="manager_enter", payload=node.qname, weight=0.0
                )
                graph.add_node(
                    exit_, kind="manager_exit", payload=node.qname, weight=0.0
                )
                for s in c_src:
                    graph.add_edge(enter, s)
                for s in c_snk:
                    graph.add_edge(s, exit_)
                if not c_src:  # fully-disabled body still runs the manager
                    graph.add_edge(enter, exit_)
                return [enter], [exit_]
            if isinstance(node, IROption):
                if not states[node.qname]:
                    return [], []
                return lower(node.child)
            raise AssertionError(f"unknown IR node {type(node).__name__}")

        lower(self.root)

        aliases = self._alias_map(states)
        streams = self._stream_table(active, aliases)
        if check:
            states_key = tuple(sorted(states.items()))
            if states_key not in self._validated_states:
                problems = stream_problems(self, graph, streams)
                if problems:
                    raise ValidationError(problems[0].message)
                self._validated_states.add(states_key)
        return ProgramGraph(
            graph=graph,
            streams=streams,
            aliases=aliases,
            option_states=states,
            active_components=tuple(active),
            crossdep_nodes=frozenset(crossdep_members),
        )

    # -- stream wiring -------------------------------------------------------

    def _alias_map(self, states: Mapping[str, bool]) -> dict[str, str]:
        """Bypass declarations of *disabled* options, chased to fixpoint."""
        direct: dict[str, str] = {}
        for qname, opt in self.options.items():
            if not states[qname]:
                for src, dst in opt.bypasses:
                    if src in direct and direct[src] != dst:
                        raise ReconfigurationError(
                            f"conflicting bypasses for stream {src!r}: "
                            f"{direct[src]!r} vs {dst!r}"
                        )
                    direct[src] = dst
        resolved: dict[str, str] = {}
        for src in direct:
            seen = {src}
            cur = src
            while cur in direct:
                cur = direct[cur]
                if cur in seen:
                    raise ReconfigurationError(
                        f"bypass cycle involving stream {src!r}"
                    )
                seen.add(cur)
            resolved[src] = cur
        return resolved

    def _stream_table(
        self, active: list[str], aliases: dict[str, str]
    ) -> dict[str, StreamTable]:
        tables: dict[str, StreamTable] = {}
        for inst_id in active:
            inst = self.components[inst_id]
            spec = self.registry[inst.class_name]
            for port, raw_name in inst.streams.items():
                name = aliases.get(raw_name, raw_name)
                table = tables.setdefault(name, StreamTable(name))
                endpoint = StreamEndpoint(inst_id, port)
                if spec.is_output(port):
                    table.writers.append(endpoint)
                else:
                    table.readers.append(endpoint)
        return tables

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, components={len(self.components)}, "
            f"managers={len(self.managers)}, options={len(self.options)})"
        )


def one_copy_regions(
    program: Program, keeps_one: Callable[[str], bool]
) -> Program:
    """``program`` with every qualifying data-parallel region cut to one copy.

    A slice or crossdep region qualifies when ``keeps_one`` accepts the
    class of every instance in it: the caller vouches that those copies
    differ only in the rows they cover, so one copy over the whole frame
    computes what all *n* did.  The region keeps copy 0, relabelled
    ``slice=(0, 1)``, which is exactly what expanding the spec with that
    region's ``n`` set to 1 produces: the same id ``x[0]``, params and
    streams, and manager and option ``members`` filtered to the copies
    that remain.  Returns ``program`` itself when no region qualifies.
    """
    kept: dict[str, ComponentInstance] = {}  # copy-0 id -> relabelled
    dropped: set[str] = set()

    def gather(node: IRNode, want: tuple[int, int],
               out: list[ComponentInstance]) -> bool:
        """Append a copy's instances to ``out``; False unless every one
        is slice ``want`` of a ``keeps_one`` class.  A copy holds only
        leaves, series and task-parallel blocks."""
        kind = type(node)
        if kind is IRLeaf:
            inst = node.instance
            out.append(inst)
            return inst.slice == want and keeps_one(inst.class_name)
        if kind is IRSeries or kind is IRParallel:
            for child in node.children:
                if not gather(child, want, out):
                    return False
            return True
        return False

    def region(copies: tuple[IRNode, ...]) -> list[list[ComponentInstance]] | None:
        """Each copy's instances, when ``copies`` is a region to cut."""
        n = len(copies)
        found = []
        for i, copy in enumerate(copies):
            leaves: list[ComponentInstance] = []
            if not gather(copy, (i, n), leaves) or not leaves:
                return None
            found.append(leaves)
        return found

    def only_copy(copies: tuple[IRNode, ...],
                  leaves: list[list[ComponentInstance]]) -> IRNode:
        for copy in leaves[1:]:
            dropped.update([inst.instance_id for inst in copy])
        return relabel(copies[0])

    def relabel(node: IRNode) -> IRNode:
        if type(node) is IRLeaf:
            inst = node.instance.relabel(node.instance.instance_id, (0, 1))
            kept[inst.instance_id] = inst
            return IRLeaf(inst)
        return type(node)(tuple(relabel(c) for c in node.children))

    def cut(node: IRNode) -> IRNode:
        kind = type(node)
        if kind is IRParallel:
            leaves = region(node.children)
            if leaves is not None:
                return only_copy(node.children, leaves)  # a slice region
        if kind is IRSeries or kind is IRParallel:
            return kind(tuple(cut(c) for c in node.children))
        if kind is IRCrossdep:
            regions = []
            for pb in node.parblocks:
                leaves = region(pb)
                if leaves is None:
                    return node
                regions.append(leaves)
            return IRCrossdep(tuple(
                (only_copy(pb, leaves),)
                for pb, leaves in zip(node.parblocks, regions)))
        if kind is IRManager or kind is IROption:
            return kind(node.qname, cut(node.child))
        return node

    root = cut(program.root)
    if not dropped:
        return program

    def remaining(members: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(m for m in members if m not in dropped)

    return Program(
        program.name,
        root,
        {iid: kept.get(iid, inst) for iid, inst in program.components.items()
         if iid not in dropped},
        {q: replace(m, members=remaining(m.members))
         for q, m in program.managers.items()},
        {q: replace(o, members=remaining(o.members))
         for q, o in program.options.items()},
        program.registry,
    )


@dataclass(frozen=True)
class StreamProblem:
    """One stream-sanity violation found in a built configuration.

    ``kind`` is one of ``multiple-writers`` / ``no-writer`` / ``unordered``;
    the lint engine maps these to diagnostic codes X302 / X205 / X303.
    ``instances`` names the offending component instance ids.
    """

    kind: str
    stream: str
    message: str
    instances: tuple[str, ...] = ()


def stream_problems(
    program: Program, graph: TaskGraph, streams: dict[str, StreamTable]
) -> list[StreamProblem]:
    """All stream-sanity violations of one configuration (collect-all).

    The checks mirror the paper's stream model: one logical writer per
    stream, every read preceded by the write of the same iteration, and
    sliced producer/consumer pairs matched index-to-index (crossdep covers
    its own halo through graph edges).
    """
    problems: list[StreamProblem] = []
    for table in streams.values():
        defs = {
            program.components[w.instance_id].definition_id for w in table.writers
        }
        if len(defs) > 1:
            problems.append(
                StreamProblem(
                    kind="multiple-writers",
                    stream=table.name,
                    message=(
                        f"stream {table.name!r} has multiple logical writers: "
                        f"{sorted(defs)}"
                    ),
                    instances=tuple(sorted(w.instance_id for w in table.writers)),
                )
            )
        if table.readers and not table.writers:
            problems.append(
                StreamProblem(
                    kind="no-writer",
                    stream=table.name,
                    message=(
                        f"stream {table.name!r} is read by "
                        f"{[r.instance_id for r in table.readers]} but has no "
                        "active writer"
                    ),
                    instances=tuple(sorted(r.instance_id for r in table.readers)),
                )
            )
        # Ordering: unsliced pairs must be graph-ordered; sliced pairs
        # are checked index-to-index (crossdep covers its own halo).
        for writer in table.writers:
            w_inst = program.components[writer.instance_id]
            w_desc = None
            for reader in table.readers:
                r_inst = program.components[reader.instance_id]
                if (
                    w_inst.slice is not None
                    and r_inst.slice is not None
                    and w_inst.slice[0] != r_inst.slice[0]
                ):
                    continue
                if w_desc is None:
                    w_desc = graph.descendants(writer.instance_id)
                if reader.instance_id not in w_desc:
                    problems.append(
                        StreamProblem(
                            kind="unordered",
                            stream=table.name,
                            message=(
                                f"stream {table.name!r}: reader "
                                f"{reader.instance_id!r} is not scheduled after "
                                f"writer {writer.instance_id!r}; the task graph "
                                "does not order them"
                            ),
                            instances=(writer.instance_id, reader.instance_id),
                        )
                    )
    return problems

"""Fusion: producer→consumer work the build runs as one job (§4.1).

Paper §4.1 reads producer→consumer locality as grouping "several
components into a group that is scheduled as one entity".
:mod:`repro.hinch.grouping` does that for every linear chain of the
simulator's ``group_chains`` ablation.  This module holds two stronger
readings.

**Pair fusion** is a build step.  Where a consumer class's
:meth:`~repro.hinch.component.Component.compile_fused_pair` returns a
combined kernel for its producer's class — ``jpeg_decode`` after
``mjpeg_source`` skips the whole Huffman round-trip — the group removes
work instead of only moving it, so
:func:`~repro.hinch.engine.build_configuration` applies
:func:`fuse_pairs` to every threaded and process build, at construction
and at each splice.  A pair qualifies when
:func:`~repro.hinch.grouping.fusable_edge` allows its edge and the
consumer is the only reader of everything the producer writes.  It is
contracted like a grouped chain into one node carrying a
:class:`FusedPair`, which :class:`~repro.hinch.engine.NodePlan` lowers
to one step: the kernel.  The stream between the two is never written.
Which classes offer a kernel is worked out once per program
(:func:`peephole_classes`); a program with none (audio, PiP, Blur) gets
its graph back untouched from every build.  The simulator passes an
empty set: it costs the paper's unfused graph.

**The chain compiler** (:func:`fuse_chains`) is the process backend's:
every ``ProcessRuntime`` build runs it after the pair pass, threads and
the simulator never do.  It merges chains that are not linear in the
graph:

1. A stream qualifies when it has one writer and one reader and each
   covers the whole plane: unsliced, or the one copy (``slice=(0, 1)``)
   of a data-parallel region the executor runs as one copy
   (:func:`~repro.core.program.one_copy_regions`).  Slice copies never
   fuse.
2. Approved pairs are unioned into chains, except that a chain holds
   at most one root of the graph (a node no other precedes, such as a
   source): independent inputs stay separate jobs, which the workers
   overlap across frames.
3. Chains are contracted into :class:`FusedChain` nodes whose one
   job executes every member back-to-back.  The intermediate plane
   becomes a worker-local numpy temporary (never touching
   ``Stream``/shm — no pack, no ensure rpc, no pickle), and the released
   orderings let a mediating barrier disappear: the fused graph keeps
   structural edges plus per-stream dataflow edges for everything *not*
   internal, and falls back chain-by-chain (and ultimately to the
   unfused graph) if a rewrite would introduce a cycle.

On processes, where every job costs a pickle and a pipe message, that
wins on every workload; on threads it costs calls per job and loses at
two threads (docs/performance.md, "What each feature earns").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.program import (
    ComponentInstance,
    Program,
    ProgramGraph,
    StreamTable,
)
from repro.errors import StreamError
from repro.graph.taskgraph import TaskGraph
from repro.hinch.component import Component
from repro.hinch.grouping import GROUP_SEPARATOR, contract, fusable_edge
from repro.hinch.stream import unsolved

__all__ = [
    "FusedPair",
    "peephole_classes",
    "fuse_pairs",
    "FusedChain",
    "FusionReport",
    "fuse_chains",
    "FusedLocalStore",
]


# ---------------------------------------------------------------------------
# Pair fusion
# ---------------------------------------------------------------------------


class FusedPair(tuple):
    """``(writer, reader)``: a node whose one step is the pair kernel."""

    __slots__ = ()


def peephole_classes(
    program: Program, registry: Mapping[str, type[Component]]
) -> frozenset[str]:
    """Names of the classes in ``program`` that offer a pair kernel."""
    names = {i.class_name for i in program.components.values()}
    return frozenset(
        name for name in names
        if name in registry and registry[name].pair_kernel
    )


def _feeds_only(
    pg: ProgramGraph,
    writer_cls: type[Component],
    writer: ComponentInstance,
    reader: ComponentInstance,
) -> bool:
    """Is ``reader`` the one reader of every stream ``writer`` writes?

    Only then may the pair skip the writes: no one else observes them.
    """
    names = [
        pg.aliases.get(raw, raw)
        for port in writer_cls.ports.outputs
        if (raw := writer.streams.get(port)) is not None
    ]
    for name in names:
        table = pg.streams.get(name)
        if table is None or (
            {w.instance_id for w in table.writers} != {writer.instance_id}
            or {r.instance_id for r in table.readers} != {reader.instance_id}
        ):
            return False
    return bool(names)


def fuse_pairs(
    pg: ProgramGraph,
    registry: Mapping[str, type[Component]],
    peepholes: frozenset[str],
) -> ProgramGraph:
    """Contract every pair a reader in ``peepholes`` has a kernel for.

    Deterministic in its inputs: a process worker that builds a
    configuration itself must arrive at the dispatcher's node ids.
    Returns ``pg`` itself when no pair qualifies.
    """
    graph = pg.graph
    pairs: list[list[str]] = []
    taken: set[str] = set()
    for node in graph:
        reader = node.payload
        if not (isinstance(reader, ComponentInstance)
                and reader.class_name in peepholes):
            continue
        preds = graph.predecessors(node.node_id)
        if len(preds) != 1 or preds[0] in taken or node.node_id in taken:
            continue
        writer_id = preds[0]
        if not fusable_edge(graph, pg.crossdep_nodes, writer_id, node.node_id):
            continue
        writer = graph.node(writer_id).payload
        writer_cls = registry.get(writer.class_name)
        if (writer_cls is None
                or not _feeds_only(pg, writer_cls, writer, reader)
                or registry[reader.class_name].compile_fused_pair(
                    writer_cls, writer, reader) is None):
            continue
        pairs.append([writer_id, node.node_id])
        taken.update(pairs[-1])
    return contract(pg, pairs, FusedPair) if pairs else pg


# ---------------------------------------------------------------------------
# The chain compiler
# ---------------------------------------------------------------------------


class FusedChain(tuple):
    """Execution-ordered members of one fused kernel.

    A tuple subclass so every existing "grouped node" code path (lease
    assembly, input gathering, checkpoint iteration) keeps working on the
    members, while fused execution recognizes the richer type:

    ``internal``
        resolved stream name -> ``(shape, dtype)`` geometry from the
        format solution, or ``None`` for opaque (object) streams.  These
        streams live as job-local values/temporaries and never reach the
        stream store.
    """

    internal: dict[str, tuple[tuple[int, ...], Any] | None]

    def __new__(
        cls,
        members: tuple[ComponentInstance, ...],
        internal: Mapping[str, tuple[tuple[int, ...], Any] | None],
    ) -> "FusedChain":
        self = super().__new__(cls, tuple(members))
        self.internal = dict(internal)
        return self

    def __reduce__(self):
        return (FusedChain, (tuple(self), self.internal))

    @property
    def node_id(self) -> str:
        return GROUP_SEPARATOR.join(m.instance_id for m in self)


@dataclass
class FusionReport:
    """What one :func:`fuse_chains` pass decided, for introspection/tests."""

    chains: tuple[FusedChain, ...] = ()
    #: resolved stream names proven internal to some chain
    internal_streams: tuple[str, ...] = ()
    #: chain node ids dropped to keep the rewritten graph acyclic
    dropped: tuple[str, ...] = ()
    #: stream name -> human-readable refusal reason (first one found)
    refused: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Candidate approval
# ---------------------------------------------------------------------------


def _refusal(table: StreamTable, pg: ProgramGraph) -> str | None:
    """Why a stream cannot become fused-chain internal; None if it can.

    Only a 1:1 stream between endpoints that each cover the whole plane
    qualifies: unsliced, or the one copy (``slice=(0, 1)``) of a region
    the executor runs as one copy.  Then the one reader consumes exactly
    the one writer's whole value, which may pass as a job-local object.
    Slice copies are refused: no real build holds several copies of a
    class whose rows are known (:attr:`Coordinator.paper_graph`).
    """
    graph = pg.graph
    if not table.writers or not table.readers:
        return "missing endpoint"

    def inst_of(endpoint) -> ComponentInstance | None:
        iid = endpoint.instance_id
        if iid not in graph:
            return None  # already merged into a grouped node
        node = graph.node(iid)
        if node.kind != "task" or not isinstance(
            node.payload, ComponentInstance
        ):
            return None
        return node.payload

    endpoints = [inst_of(e) for e in (*table.writers, *table.readers)]
    if any(i is None for i in endpoints):
        return "endpoint is not a standalone task node"
    # chains must not cross control nodes (kind filter above), crossdep
    # consumers, or option-configuration boundaries
    if any(i.instance_id in pg.crossdep_nodes for i in endpoints):
        return "crossdep endpoint"
    if len({i.manager for i in endpoints}) > 1:
        return "crosses a manager boundary"
    if len({i.options for i in endpoints}) > 1:
        return "crosses an option-configuration boundary"
    if not {i.slice for i in endpoints} <= _WHOLE_PLANE:
        return "sliced copies"
    if len(endpoints) != 2:
        return "plural endpoints"
    if endpoints[0].instance_id == endpoints[1].instance_id:
        return "instance both writes and reads the stream"
    return None


#: the slices of an endpoint that covers the whole plane
_WHOLE_PLANE = frozenset({None, (0, 1)})


# ---------------------------------------------------------------------------
# Graph rewrite
# ---------------------------------------------------------------------------


def _build_chains(
    graph: TaskGraph, pairs: list[tuple[str, str]]
) -> list[list[str]]:
    """Union approved pairs into chains, members in topological order.

    A pair is not joined when each of its two chains holds a root of the
    graph (a node no other precedes, such as a source): independent
    inputs stay in separate jobs, so the workers can overlap one with
    the rest of the previous frame.
    """
    roots = set(graph.sources())
    chain_of: dict[str, list[str]] = {}
    for a, b in pairs:
        ca, cb = chain_of.get(a, [a]), chain_of.get(b, [b])
        if ca is not cb and not (roots.intersection(ca)
                                 and roots.intersection(cb)):
            ca += cb
            for member in ca:
                chain_of[member] = ca
    order = {nid: i for i, nid in enumerate(graph.topological_order())}
    chains = [sorted(ms, key=order.__getitem__)
              for ms in {id(c): c for c in chain_of.values()}.values()]
    chains.sort(key=lambda ms: order[ms[0]])
    return chains


def _rewrite(
    pg: ProgramGraph,
    chains: list[list[str]],
    approved: dict[str, tuple[str, str]],
    expectations: Mapping[str, tuple[tuple[int, ...], Any]],
) -> tuple[TaskGraph, list[FusedChain]] | None:
    """Contract ``chains`` into fused nodes; None when the result cycles.

    Barrier nodes encode only ordering, so they are dropped wholesale and
    replaced by per-stream dataflow edges: every writer→reader pair of
    every stream (an approved stream's one pair contracts to a self-edge
    inside its chain).
    """
    graph = pg.graph
    member_of: dict[str, str] = {}
    chain_ids: list[str] = []
    for members in chains:
        cid = GROUP_SEPARATOR.join(members)
        chain_ids.append(cid)
        for m in members:
            member_of[m] = cid
    chain_members = dict(zip(chain_ids, chains))

    # locate: instance id -> current node id (grouped nodes hold tuples)
    locate: dict[str, str] = {}
    for node in graph:
        payload = node.payload
        if isinstance(payload, ComponentInstance):
            locate[payload.instance_id] = node.node_id
        elif isinstance(payload, tuple):
            for m in payload:
                locate[m.instance_id] = node.node_id

    fused_payloads: dict[str, FusedChain] = {}
    new = TaskGraph()
    for node in graph:
        if node.kind == "barrier":
            continue
        cid = member_of.get(node.node_id)
        if cid is None:
            new.add_node(
                node.node_id,
                label=node.label,
                kind=node.kind,
                payload=node.payload,
                weight=node.weight,
            )
        elif cid not in new:
            members = tuple(
                graph.node(m).payload for m in chain_members[cid]
            )
            internal = {
                name: expectations.get(name)
                for name, (w, r) in approved.items()
                if member_of.get(w) == cid and member_of.get(r) == cid
            }
            payload = FusedChain(members, internal)
            fused_payloads[cid] = payload
            new.add_node(
                cid,
                label=cid,
                kind="task",
                payload=payload,
                weight=sum(graph.node(m).weight for m in chain_members[cid]),
            )

    def mapped(instance_id: str) -> str | None:
        nid = locate.get(instance_id, instance_id)
        nid = member_of.get(nid, nid)
        return nid if nid in new else None

    # structural edges (series/parallel/crossdep/manager), barriers elided
    for u, v in graph.edges():
        if graph.node(u).kind == "barrier" or graph.node(v).kind == "barrier":
            continue
        a, b = member_of.get(u, u), member_of.get(v, v)
        if a != b and a in new and b in new:
            new.add_edge(a, b)
    # dataflow edges per stream
    for table in pg.streams.values():
        for w in table.writers:
            for r in table.readers:
                a, b = mapped(w.instance_id), mapped(r.instance_id)
                if a is not None and b is not None and a != b:
                    new.add_edge(a, b)

    if not new.is_acyclic():
        return None
    return new, [fused_payloads[cid] for cid in chain_ids]


def fuse_chains(
    pg: ProgramGraph,
    program: Any,
    registry: Mapping[str, type[Component]],
    expectations: Mapping[str, tuple[tuple[int, ...], Any]],
    backend: str = "numpy",
    parallel_headroom: int | None = None,
) -> tuple[ProgramGraph, FusionReport]:
    """Compile every fusable chain of ``pg`` into fused nodes.

    Deterministic in its inputs: the dispatcher and every worker process
    run this independently after each reconfiguration splice and must
    agree on node ids and member order.  Returns the rewritten graph
    (or ``pg`` itself when nothing fuses) plus a :class:`FusionReport`.

    Only ``pg`` and ``expectations`` are read.  ``program`` and
    ``registry`` keep the callers' positional order; ``backend`` and
    ``parallel_headroom`` are frozen-path shims for
    ``benchmarks/e2e/layers.py``, which passes ``"numpy"`` and a
    head-room from when this chose a kernel backend and guarded the
    fusion of slice copies.
    """
    report = FusionReport()
    #: stream name -> its one (writer, reader) instance-id pair
    approved: dict[str, tuple[str, str]] = {}
    for name, table in pg.streams.items():
        reason = _refusal(table, pg)
        if reason is None:
            approved[name] = (table.writers[0].instance_id,
                              table.readers[0].instance_id)
        else:
            report.refused[name] = reason

    if not approved:
        return pg, report

    chains = _build_chains(pg.graph, list(approved.values()))

    dropped: list[str] = []
    while chains:
        result = _rewrite(pg, chains, approved, expectations)
        if result is not None:
            break
        # A chain interacts with an external path; drop the most recently
        # discovered chain and retry (deterministic, converges).
        dropped.append(GROUP_SEPARATOR.join(chains[-1]))
        chains = chains[:-1]
    else:
        report.dropped = tuple(dropped)
        return pg, report

    new_graph, fused = result
    report.chains = tuple(fused)
    report.dropped = tuple(dropped)
    report.internal_streams = tuple(
        sorted({name for c in fused for name in c.internal})
    )

    fused_pg = ProgramGraph(
        graph=new_graph,
        streams=pg.streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components,
        crossdep_nodes=pg.crossdep_nodes,
    )
    return fused_pg, report


# ---------------------------------------------------------------------------
# Fused execution (compiled into a repro.hinch.engine.NodePlan)
# ---------------------------------------------------------------------------

_MISSING = object()


class _LocalStream:
    """Stream facade for one fused-internal stream within one job."""

    __slots__ = ("_store", "_name")

    def __init__(self, store: "FusedLocalStore", name: str) -> None:
        self._store = store
        self._name = name

    def get(self, iteration: int) -> Any:
        value = self._store.slots.get(self._name, _MISSING)
        if value is _MISSING:
            raise StreamError(
                f"fused stream {self._name!r}: read before write in "
                f"iteration {iteration} (member order broken)"
            )
        return value

    def put(self, iteration: int, value: Any, *, writer: str | None = None) -> None:
        if self._name in self._store.slots:
            raise StreamError(
                f"fused stream {self._name!r}: double write in iteration "
                f"{iteration}"
            )
        self._store.slots[self._name] = value

    def ensure_buffer(self, iteration: int, *, writer: str | None = None) -> Any:
        buf = self._store.slots.get(self._name, _MISSING)
        if buf is _MISSING:
            buf = self._store.slots[self._name] = self._store.temp(
                self._name, iteration, writer)
        return buf


class FusedLocalStore:
    """StreamStore facade: internal streams stay job-local, rest pass through.

    One per fused node per configuration.  ``slots`` holds the current
    job's internal values and is emptied (in place) when the next job
    starts; ``_temps`` caches the intermediate planes *across
    iterations* — the scheduler serializes a node's iterations, so the
    same scratch plane is safely reused and the fused hot path stops
    allocating entirely.  Discarded with the node's plan at
    reconfiguration.
    """

    __slots__ = ("_base", "internal", "slots", "_temps")

    def __init__(self, base: Any, chain: FusedChain) -> None:
        self._base = base
        self.internal = chain.internal
        self.slots: dict[str, Any] = {}
        self._temps: dict[str, np.ndarray] = {}

    def stream(self, name: str):
        if name in self.internal:
            return _LocalStream(self, name)
        return self._base.stream(name)

    def temp(self, name: str, iteration: int, writer: str | None) -> np.ndarray:
        """The scratch plane of internal stream ``name``: its solved format."""
        buf = self._temps.get(name)
        if buf is None:
            expected = self.internal[name]
            if expected is None:
                raise unsolved(name, iteration, writer)
            buf = self._temps[name] = np.empty(*expected)
        return buf

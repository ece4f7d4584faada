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

1. For every stream it asks whether each *reader copy* provably consumes
   only what its *paired writer copy* produced.  Unsliced 1:1 streams
   pass trivially; sliced pairs are proven through the components'
   ``writes_rows``/``reads_rows`` access contracts against the plane
   height pinned by the reconciled X5xx port formats — e.g. a block-8
   IDCT copy writes rows ``[16i, 16i+16)`` of a 128-row field and the
   factor-4 downscaler copy with the same slice index reads exactly that
   band.
2. Approved pairs are contracted into :class:`FusedChain` nodes whose one
   job executes every member back-to-back per slice.  The intermediate
   plane becomes a worker-local numpy temporary (never touching
   ``Stream``/shm — no pack, no ensure rpc, no pickle), and the released
   cross-pair orderings let the mediating barrier disappear: the fused
   graph keeps structural edges plus per-stream dataflow edges for
   everything *not* proven internal, and falls back chain-by-chain (and
   ultimately to the unfused graph) if a rewrite would introduce a cycle.

On ``audio_dispatch`` it merges the terminal ``fuse+sink`` pair, and
JPiP's 127 nodes become 63.  On processes, where every job costs a
pickle and a pipe message, that wins on every workload; on threads it
costs calls per job and loses at two threads (docs/performance.md,
"What each feature earns").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from inspect import getattr_static
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
from repro.hinch.stream import AGAINST_FORMAT, check_geometry

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
        if name in registry and _offers_pair_kernel(registry[name])
    )


def _offers_pair_kernel(cls: type[Component]) -> bool:
    """Does ``cls`` override :meth:`Component.compile_fused_pair`?"""
    return (getattr_static(cls, "compile_fused_pair")
            is not vars(Component)["compile_fused_pair"])


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


def _approve_stream(
    name: str,
    table: StreamTable,
    pg: ProgramGraph,
    registry: Mapping[str, type[Component]],
    expectations: Mapping[str, tuple[tuple[int, ...], Any]],
    parallel_headroom: int | None = None,
) -> tuple[list[tuple[str, str]], Any] | str:
    """Decide whether stream ``name`` can become fused-chain internal.

    Returns ``(pairs, geometry)`` — writer/reader instance-id pairs whose
    cross-pair ordering the access contracts release — or a refusal
    reason string.

    ``parallel_headroom`` (workers the caller can actually run in
    parallel, ``None`` = unknown/serial) feeds the profitability guard:
    fusing slice copy pairs is a loss when *more* workers than copies
    exist, because the unfused form lets writer copies of iteration k+1
    overlap reader copies of iteration k on the extra workers — fusion
    welds each pair into one job and forfeits that pipeline overlap.
    Pairs with a real combined kernel (``compile_fused_pair`` override)
    are exempt: they elide work outright, which beats overlap.
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

    writer_insts = [inst_of(w) for w in table.writers]
    reader_insts = [inst_of(r) for r in table.readers]
    if any(i is None for i in writer_insts + reader_insts):
        return "endpoint is not a standalone task node"
    # chains must not cross control nodes (kind filter above), crossdep
    # consumers, or option-configuration boundaries
    all_insts = writer_insts + reader_insts
    if any(i.instance_id in pg.crossdep_nodes for i in all_insts):
        return "crossdep endpoint"
    if len({i.manager for i in all_insts}) > 1:
        return "crosses a manager boundary"
    if len({i.options for i in all_insts}) > 1:
        return "crosses an option-configuration boundary"
    if len({i.definition_id for i in writer_insts}) > 1:
        return "multiple writer definitions"
    if len({i.definition_id for i in reader_insts}) > 1:
        return "multiple reader definitions"
    writer_ids = {i.instance_id for i in writer_insts}
    if writer_ids & {i.instance_id for i in reader_insts}:
        return "instance both writes and reads the stream"
    if len({i.instance_id for i in reader_insts}) != len(reader_insts):
        return "instance reads the stream on several ports"

    w_port = table.writers[0].port
    r_port = table.readers[0].port
    slices = {i.slice for i in all_insts}

    if slices == {None}:
        if len(writer_insts) == 1 and len(reader_insts) == 1:
            # Unsliced 1:1: the single reader consumes exactly the single
            # writer's whole value — pass it as a local object.
            pairs = [
                (writer_insts[0].instance_id, reader_insts[0].instance_id)
            ]
            return pairs, expectations.get(name)
        return "plural unsliced endpoints"

    if None in slices:
        return "mixed sliced/unsliced endpoints"

    # Sliced pairs: writer copy i must provably cover reader copy i.
    n_totals = {i.slice[1] for i in all_insts}
    if len(n_totals) != 1:
        return "slice counts differ"
    n = n_totals.pop()
    by_index_w = {i.slice[0]: i for i in writer_insts}
    by_index_r = {i.slice[0]: i for i in reader_insts}
    if set(by_index_w) != set(range(n)) or set(by_index_r) != set(range(n)):
        return "slice copies do not cover 0..n-1"
    if parallel_headroom is not None and parallel_headroom > n:
        r_cls0 = registry.get(reader_insts[0].class_name)
        if r_cls0 is None or not _offers_pair_kernel(r_cls0):
            return (
                f"unprofitable: {n} slice copies under "
                f"{parallel_headroom}-way parallel headroom — unfused "
                "pipeline overlap beats single-job fusion"
            )
    geometry = expectations.get(name)
    if geometry is None:
        return "no reconciled plane format (X5xx) to prove row spans"
    height = int(geometry[0][0])
    pairs: list[tuple[str, str]] = []
    for i in range(n):
        w, r = by_index_w[i], by_index_r[i]
        if w.slice != r.slice:
            return "slice assignments differ within a pair"
        w_cls = registry.get(w.class_name)
        r_cls = registry.get(r.class_name)
        if w_cls is None or r_cls is None:
            return "endpoint class not in registry"
        wrote = w_cls.writes_rows(w, w_port, height)
        read = r_cls.reads_rows(r, r_port, height)
        if wrote is None or read is None:
            return (
                f"no access contract for pair {w.instance_id!r}/"
                f"{r.instance_id!r}"
            )
        if not (wrote[0] <= read[0] and read[1] <= wrote[1]):
            return (
                f"rows read {read} exceed rows written {wrote} for slice {i}"
            )
        pairs.append((w.instance_id, r.instance_id))
    return pairs, geometry


# ---------------------------------------------------------------------------
# Graph rewrite
# ---------------------------------------------------------------------------


def _build_chains(
    graph: TaskGraph, pairs: list[tuple[str, str]]
) -> list[list[str]]:
    """Union approved pairs into chains, members in topological order."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    order = {nid: i for i, nid in enumerate(graph.topological_order())}
    groups: dict[str, list[str]] = {}
    for member in parent:
        groups.setdefault(find(member), []).append(member)
    chains = [sorted(ms, key=order.__getitem__) for ms in groups.values()]
    chains.sort(key=lambda ms: order[ms[0]])
    return chains


def _rewrite(
    pg: ProgramGraph,
    chains: list[list[str]],
    approved: dict[str, tuple[list[tuple[str, str]], Any]],
) -> tuple[TaskGraph, list[FusedChain]] | None:
    """Contract ``chains`` into fused nodes; None when the result cycles.

    Barrier nodes encode only ordering, and the approved access contracts
    released exactly the cross-pair orderings they enforced — so barriers
    are dropped wholesale and replaced by per-stream dataflow edges:
    every writer→reader pair for unapproved streams, matched pairs only
    for approved ones (which contract to self-edges inside a chain).
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
                name: geometry
                for name, (prs, geometry) in approved.items()
                if any(
                    member_of.get(w) == cid and member_of.get(r) == cid
                    for w, r in prs
                )
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
    for name, table in pg.streams.items():
        entry = approved.get(name)
        if entry is None:
            pairlist = [
                (w.instance_id, r.instance_id)
                for w in table.writers
                for r in table.readers
            ]
        else:
            pairlist = entry[0]
        for w_id, r_id in pairlist:
            a, b = mapped(w_id), mapped(r_id)
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
    """Compile every provably-fusable chain of ``pg`` into fused nodes.

    Deterministic in its inputs: the dispatcher and every worker process
    run this independently after each reconfiguration splice and must
    agree on node ids and member order.  Returns the rewritten graph
    (or ``pg`` itself when nothing fuses) plus a :class:`FusionReport`.

    ``parallel_headroom`` enables the sliced-pair profitability guard
    (see :func:`_approve_stream`); callers pass the number of workers
    that can genuinely run in parallel (``min(workers, cores)`` on the
    process backend) or ``None`` to fuse unconditionally.  ``backend``
    is accepted for ``benchmarks/e2e/layers.py``, which passes
    ``"numpy"``, and ignored (a frozen-path shim, ROADMAP item 4(c)).
    """
    report = FusionReport()
    approved: dict[str, tuple[list[tuple[str, str]], Any]] = {}
    for name, table in pg.streams.items():
        verdict = _approve_stream(
            name, table, pg, registry, expectations,
            parallel_headroom=parallel_headroom,
        )
        if isinstance(verdict, str):
            report.refused[name] = verdict
        else:
            approved[name] = verdict

    if not approved:
        return pg, report

    all_pairs = [p for prs, _ in approved.values() for p in prs]
    chains = _build_chains(pg.graph, all_pairs)

    dropped: list[str] = []
    while chains:
        result = _rewrite(pg, chains, approved)
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

    def ensure_buffer(
        self,
        iteration: int,
        *,
        shape: tuple[int, ...],
        dtype: Any = None,
        writer: str | None = None,
    ) -> Any:
        buf = self._store.slots.get(self._name, _MISSING)
        if buf is not _MISSING:
            return buf
        expected = self._store.internal.get(self._name)
        if expected is not None:
            check_geometry(self._name, iteration, writer, shape, dtype,
                           expected, AGAINST_FORMAT)
        buf = self._store.temp(self._name, tuple(shape), dtype)
        self._store.slots[self._name] = buf
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

    def temp(
        self, name: str, shape: tuple[int, ...], dtype: Any
    ) -> np.ndarray:
        buf = self._temps.get(name)
        if (
            buf is None
            or buf.shape != shape
            or (dtype is not None and buf.dtype != np.dtype(dtype))
        ):
            buf = np.empty(shape, dtype=dtype)
            self._temps[name] = buf
        return buf

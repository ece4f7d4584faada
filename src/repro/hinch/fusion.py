"""Chain fusion: compile producer→consumer chains into single-dispatch kernels.

The §4.1 grouping rewrite (:mod:`repro.hinch.grouping`) merges *graph
linear* chains — producer with one successor meeting consumer with one
predecessor.  That shape is rare in real pipelines: sliced stages meet at
barrier nodes, so the runtime bench shows per-job Python dispatch (not
pixels) dominating wall time.  This module is the grouping idea taken to
its logical end, a **chain-fusion compiler** that runs at build time and
again at every reconfiguration splice:

1. For every stream it asks whether each *reader copy* provably consumes
   only what its *paired writer copy* produced.  Unsliced 1:1 streams
   pass trivially; sliced pairs are proven through the components'
   ``writes_rows``/``reads_rows`` access contracts against the plane
   height pinned by the reconciled X5xx port formats (PR 6) — e.g. a
   block-8 IDCT copy writes rows ``[16i, 16i+16)`` of a 128-row field
   and the factor-4 downscaler copy with the same slice index reads
   exactly that band.
2. Approved pairs are contracted into :class:`FusedChain` nodes whose one
   job executes every member back-to-back per slice.  The intermediate
   plane becomes a worker-local numpy temporary (never touching
   ``Stream``/shm — no pack, no ensure rpc, no pickle), and the released
   cross-pair orderings let the mediating barrier disappear: the fused
   graph keeps structural edges plus per-stream dataflow edges for
   everything *not* proven internal, and falls back chain-by-chain (and
   ultimately to the unfused graph) if a rewrite would introduce a cycle.

Codegen backends: the always-on ``numpy`` backend composes the members'
vectorized kernels over the local temporaries; ``numba`` additionally
asks each member class for an njit-compiled replacement kernel
(:meth:`Component.compile_fused`), silently falling back per member —
and to ``numpy`` entirely — when numba is absent or compilation fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.program import ComponentInstance, ProgramGraph, StreamTable
from repro.errors import StreamError
from repro.graph.taskgraph import TaskGraph
from repro.hinch.component import Component
from repro.hinch.grouping import GROUP_SEPARATOR
from repro.hinch.stream import AGAINST_FORMAT, check_geometry

__all__ = [
    "FusedChain",
    "FusionReport",
    "fuse_chains",
    "FusedLocalStore",
    "compile_steps",
    "resolve_backend",
    "numba_available",
    "FUSE_BACKENDS",
]

FUSE_BACKENDS = ("numpy", "numba")


def numba_available() -> bool:
    """True when the optional numba dependency can actually be imported."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def resolve_backend(requested: str) -> str:
    """Resolve the requested codegen backend, falling back to ``numpy``.

    ``numba`` degrades silently when the dependency is absent — the
    fused-vs-unfused bit-identity contract holds either way, so a missing
    accelerator must never fail a run.
    """
    if requested not in FUSE_BACKENDS:
        raise ValueError(
            f"unknown fuse backend {requested!r}; expected one of "
            f"{FUSE_BACKENDS}"
        )
    if requested == "numba" and not numba_available():
        return "numpy"
    return requested


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
    ``backend``
        resolved codegen backend (``"numpy"`` or ``"numba"``).
    """

    internal: dict[str, tuple[tuple[int, ...], Any] | None]
    backend: str

    def __new__(
        cls,
        members: tuple[ComponentInstance, ...],
        internal: Mapping[str, tuple[tuple[int, ...], Any] | None],
        backend: str = "numpy",
    ) -> "FusedChain":
        self = super().__new__(cls, tuple(members))
        self.internal = dict(internal)
        self.backend = backend
        return self

    def __reduce__(self):
        return (FusedChain, (tuple(self), self.internal, self.backend))

    @property
    def node_id(self) -> str:
        return GROUP_SEPARATOR.join(m.instance_id for m in self)


@dataclass
class FusionReport:
    """What one :func:`fuse_chains` pass decided, for introspection/tests."""

    requested_backend: str
    backend: str
    chains: tuple[FusedChain, ...] = ()
    #: resolved stream names proven internal to some chain
    internal_streams: tuple[str, ...] = ()
    #: derived implementation families: fused family name -> wrapper class
    derived: dict[str, type[Component]] = field(default_factory=dict)
    #: chain node ids dropped to keep the rewritten graph acyclic
    dropped: tuple[str, ...] = ()
    #: stream name -> human-readable refusal reason (first one found)
    refused: dict[str, str] = field(default_factory=dict)

    @property
    def fused_node_count(self) -> int:
        return len(self.chains)


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
        peephole = (
            r_cls0 is not None
            and r_cls0.compile_fused_pair.__func__
            is not Component.compile_fused_pair.__func__
        )
        if not peephole:
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
    backend: str,
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
            payload = FusedChain(members, internal, backend)
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
    process backend) or ``None`` to fuse unconditionally.
    """
    resolved = resolve_backend(backend)
    report = FusionReport(requested_backend=backend, backend=resolved)

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
        result = _rewrite(pg, chains, approved, resolved)
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
    for chain in fused:
        fam_name, cls = _derived_family(chain, registry, pg)
        if fam_name not in report.derived:
            report.derived[fam_name] = cls

    fused_pg = ProgramGraph(
        graph=new_graph,
        streams=pg.streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components,
        crossdep_nodes=pg.crossdep_nodes,
    )
    return fused_pg, report


def _derived_family(
    chain: FusedChain,
    registry: Mapping[str, type[Component]],
    pg: ProgramGraph,
) -> tuple[str, type[Component]]:
    """Build the derived implementation family for one fused chain.

    The family name concatenates the member class names; the wrapper
    class exposes the chain's *external* contract — every member port
    whose stream survives fusion, qualified ``<class>[<i>].<port>`` —
    so ``run --impl``/lint introspection still sees the abstract chain.
    """
    fam_name = GROUP_SEPARATOR.join(m.class_name for m in chain)
    inputs: list[str] = []
    outputs: list[str] = []
    formats: dict[str, str] = {}
    for i, member in enumerate(chain):
        spec = registry[member.class_name].ports
        for port, raw in member.streams.items():
            resolved_name = pg.resolve_stream(raw)
            if resolved_name in chain.internal:
                continue
            qualified = f"{member.class_name}[{i}].{port}"
            if spec.is_output(port):
                outputs.append(qualified)
            else:
                inputs.append(qualified)
            decl = spec.formats.get(port)
            if decl is not None:
                formats[qualified] = decl
    from repro.core.ports import PortSpec

    wrapper = type(
        "Fused_" + fam_name.replace(GROUP_SEPARATOR, "_"),
        (Component,),
        {
            "ports": PortSpec(
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                open_params=True,
                formats=formats,
            ),
            "__doc__": f"Derived fused family {fam_name!r} (introspection "
            "only; execution runs the member kernels).",
        },
    )
    return fam_name, wrapper


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
        factory: Callable[[], Any] | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: Any = None,
        writer: str | None = None,
    ) -> Any:
        buf = self._store.slots.get(self._name, _MISSING)
        if buf is not _MISSING:
            return buf
        expected = self._store.internal.get(self._name)
        if expected is not None and shape is not None:
            check_geometry(self._name, iteration, writer, shape, dtype,
                           expected, AGAINST_FORMAT)
        if shape is None and expected is not None:
            shape, dtype = expected
        if shape is not None:
            buf = self._store.temp(self._name, tuple(shape), dtype)
        elif factory is not None:
            buf = factory()
        else:
            raise StreamError(
                f"fused stream {self._name!r}: ensure_buffer needs a "
                "factory or a shape"
            )
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


def compile_steps(
    chain: FusedChain,
    components: Mapping[str, Component],
    aliases: dict[str, str],
) -> list[tuple[ComponentInstance, ComponentInstance | None, Any]]:
    """Lower a chain to execution steps: pair kernels, then per-member.

    Adjacent members whose connecting streams are all chain-internal are
    offered to the downstream class's
    :meth:`~Component.compile_fused_pair` peephole; a hit collapses both
    into one step.  Remaining members get a per-member compiled kernel
    on non-default backends (:meth:`~Component.compile_fused`) or the
    interpreted ``run``.
    """
    members = list(chain)
    steps: list[tuple[ComponentInstance, ComponentInstance | None, Any]] = []
    i = 0
    while i < len(members):
        if i + 1 < len(members):
            a, b = members[i], members[i + 1]
            if _feeds_internally(a, b, chain, components, aliases):
                pair = type(components[b.instance_id]).compile_fused_pair(
                    type(components[a.instance_id]), a, b, chain.backend
                )
                if pair is not None:
                    steps.append((a, b, pair))
                    i += 2
                    continue
        member = members[i]
        kernel = (
            type(components[member.instance_id]).compile_fused(
                member, chain.backend
            )
            if chain.backend != "numpy"
            else None
        )
        steps.append((member, None, kernel))
        i += 1
    return steps


def _feeds_internally(
    a: ComponentInstance,
    b: ComponentInstance,
    chain: FusedChain,
    components: Mapping[str, Component],
    aliases: dict[str, str],
) -> bool:
    """True when every output of ``a`` is chain-internal and read by ``b``.

    The pair peephole may skip materializing ``a``'s outputs, which is
    sound only if no one outside the pair — neither another chain member
    nor the stream store — can observe them.
    """
    ports_a = type(components[a.instance_id]).ports
    ports_b = type(components[b.instance_id]).ports
    outs = {
        aliases.get(a.streams[p], a.streams[p])
        for p in ports_a.outputs
        if p in a.streams
    }
    ins = {
        aliases.get(b.streams[p], b.streams[p])
        for p in ports_b.inputs
        if p in b.streams
    }
    return bool(outs) and outs <= set(chain.internal) and outs <= ins

"""Whole-network interface reconciliation: the X5xx format-solving pass.

Every port carries a declared format term (see :mod:`repro.core.formats`)
— from its component class's :class:`~repro.core.ports.PortSpec` or from
a per-binding ``<stream format=...>`` override.  This pass instantiates
the terms per component instance and unifies them across every stream of
one built configuration, in the spirit of interface reconciliation for
KPNs (Zaichenkov et al., PAPERS.md) but as a pure unification/fixpoint
pass — no SAT backend.

Diagnostics:

* **X501** (error) — two endpoints of a stream disagree on a concrete
  property (shape, kind, colorspace, rank, or a non-convertible dtype);
* **X502** (error) — a symbolic dimension has no integral solution
  (e.g. ``height/2`` of an odd height, or ``H`` unified with ``H/2``);
* **X503** (error) — a sliced writer's solved height is not divisible by
  its declared ``block`` (subsumes the runtime ``rows()`` geometry check);
* **X504** (warning) — a plane dtype mismatch that the shipped
  ``convert_plane`` component could bridge (named in the message);
* **X505** (info) — an endpoint without any format declaration; the
  stream has no solved plane format, and a ``put`` on it sets its
  format by first-write inference;
* **X506** (info) — an X504 site the runtimes bridge themselves: every
  backend auto-inserts the ``convert_plane`` at build time
  (:func:`auto_insert_converters`).  By default the converter runs as a
  job of its own, one extra dispatch and one extra plane per iteration;
  declaring matching dtypes removes both.  On the process backend the
  chain compiler (:func:`repro.hinch.fusion.fuse_chains`) can absorb it
  into the producer or consumer chain;
* **X507** (error) — a writer that allocates its output with
  ``job.buffer`` (a port in its class's ``PortSpec.buffers``, or an
  auto-inserted ``convert_plane``) writes a stream with no solved plane
  format, so the buffer has nothing to be allocated from.

The solved per-stream plane formats are the runtimes' buffer plan
(:attr:`FormatSolution.planes`, :func:`runtime_expectations`): every
``job.buffer`` is allocated from it, and a whole write that
diverges from it raises a structured
:class:`~repro.errors.StreamFormatError` instead of a late geometry
surprise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.diagnostics import DiagnosticBag
from repro.core.formats import (
    FormatDecl,
    FormatError,
    Term,
    Unifier,
    UnifyConflict,
    parse_format,
)

__all__ = [
    "SolvedStream",
    "FormatSolution",
    "ConversionSite",
    "check_formats",
    "runtime_expectations",
    "auto_insert_converters",
    "CONVERTER_COMPONENT",
]

#: Shipped component that bridges plane dtype mismatches (X504 suggests it).
CONVERTER_COMPONENT = "convert_plane"


@dataclass
class SolvedStream:
    """One stream's reconciled format after unification."""

    kind: str | None = None
    dtype: str | None = None
    shape: tuple[int | None, ...] | None = None
    colorspace: str | None = None
    declared: bool = False  # at least one endpoint declared a format
    fully_declared: bool = True  # every endpoint declared a format
    conflicted: bool = False  # an X501/X502 fired on this stream

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dtype": self.dtype,
            "shape": list(self.shape) if self.shape is not None else None,
            "colorspace": self.colorspace,
            "declared": self.declared,
        }


@dataclass(frozen=True)
class ConversionSite:
    """One X504 dtype bridge the runtimes insert a ``convert_plane`` for.

    The stream keeps the *writer's* dtype; the reader endpoint here is
    rebound to a derived stream carrying ``dst_dtype``.
    """

    stream: str
    reader: str  # reader instance id
    port: str  # reader port rebound to the converted stream
    src_dtype: str
    dst_dtype: str


@dataclass
class FormatSolution:
    """Result of one configuration's reconciliation pass."""

    option_states: dict[str, bool] = field(default_factory=dict)
    streams: dict[str, SolvedStream] = field(default_factory=dict)
    #: X504 sites, in discovery order — input to auto_insert_converters
    conversions: list[ConversionSite] = field(default_factory=list)
    #: stream -> (shape, dtype name) of every fully-declared, concrete,
    #: conflict-free plane stream: the runtimes' buffer plan
    planes: dict[str, tuple[tuple[int, ...], str]] = field(
        default_factory=dict)


@dataclass
class _Endpoint:
    instance_id: str
    definition_id: str
    port: str
    is_writer: bool
    term: Term | None  # None = undeclared (inference)
    line: int | None
    slice: tuple[int, int] | None
    allocates: bool  # a writer port its class fills with job.buffer


def _effective_decl(spec, inst, port) -> FormatDecl | None:
    """The declaration of one endpoint of ``inst``, whose class has the
    ports ``spec``.

    A per-binding override replaces the class declaration entirely.
    Raises :class:`FormatError` on an unparsable override (the validator
    only checks overrides without ``${}`` placeholders).
    """
    override = inst.port_formats.get(port)
    if override is not None:
        return parse_format(override)
    decl = getattr(spec, "formats", {}).get(port)
    return None if decl is None else parse_format(decl)


def _gather(bag: DiagnosticBag, program, pg, context: str) -> list[_Endpoint] | None:
    """Instantiate every active endpoint's format term."""
    out: list[_Endpoint] = []
    for table in pg.streams.values():
        for endpoint, is_writer in [(w, True) for w in table.writers] + [
            (r, False) for r in table.readers
        ]:
            inst = program.components[endpoint.instance_id]
            spec = program.registry.get(inst.class_name)
            line = inst.port_lines.get(endpoint.port) or inst.line
            try:
                decl = _effective_decl(spec, inst, endpoint.port)
            except FormatError as exc:
                bag.report(
                    "X119",
                    f"component {inst.definition_id!r}, port "
                    f"{endpoint.port!r}: {exc}",
                    line=line,
                    where=inst.definition_id,
                )
                decl = None
            term: Term | None = None
            if decl is None:
                bag.report(
                    "X505",
                    f"port {endpoint.port!r} of {inst.definition_id!r} has no "
                    f"format declaration; stream {table.name!r} has no "
                    "solved plane format, and only a put infers one",
                    line=line,
                    where=inst.definition_id,
                )
            else:
                try:
                    term = decl.instantiate(inst.params, inst.definition_id)
                except FormatError as exc:
                    bag.report(
                        "X502",
                        f"port {endpoint.port!r} of {inst.definition_id!r}: "
                        f"{exc}{context}",
                        line=line,
                        where=inst.definition_id,
                    )
            out.append(
                _Endpoint(
                    instance_id=endpoint.instance_id,
                    definition_id=inst.definition_id,
                    port=endpoint.port,
                    is_writer=is_writer,
                    term=term,
                    line=line,
                    slice=inst.slice,
                    allocates=is_writer and endpoint.port in getattr(
                        spec, "buffers", ()),
                )
            )
    return out


def _is_convertible(a: str, b: str) -> bool:
    """True when a plane-to-plane dtype mismatch has a numeric bridge."""
    try:
        return (
            np.issubdtype(np.dtype(a), np.number)
            and np.issubdtype(np.dtype(b), np.number)
        )
    except TypeError:
        return False


def solve_formats_or_raise(program, pg) -> FormatSolution:
    """:func:`check_formats`, but reconciliation *errors* abort the build.

    The runtimes call this when installing a configuration: a spec whose
    declared formats cannot be reconciled (X501/X502/X503), or whose
    ``job.buffer`` writer has no buffer plan (X507), must fail when
    the graph is built — never run on silent first-write inference, where
    a sink declaring one geometry happily consumes another.  Warnings and
    infos (X504/X505/X506) pass through untouched; they are lint's
    business, not the runtime's.
    """
    from repro.analysis.diagnostics import Severity
    from repro.errors import StreamFormatError

    bag = DiagnosticBag()
    solution = check_formats(bag, program, pg)
    if bag.has_errors:
        errors = [d for d in bag.sorted() if d.severity is Severity.ERROR]
        detail = "; ".join(f"{d.code}: {d.message}" for d in errors)
        raise StreamFormatError(
            f"declared port formats do not reconcile "
            f"({len(errors)} error(s)): {detail}"
        )
    return solution


def check_formats(
    bag: DiagnosticBag, program, pg, *, context: str = ""
) -> FormatSolution:
    """Reconcile port formats across one configuration's streams.

    Reports X119/X501–X507 into ``bag`` and returns the solved per-stream
    format table.  Endpoints without declarations contribute no
    constraints, so removing a declaration never creates a conflict; it
    can leave a stream without a solved plane format, which is an X507
    where a writer allocates that stream with ``job.buffer``.
    """
    solution = FormatSolution(option_states=dict(pg.option_states))
    endpoints = _gather(bag, program, pg, context)
    by_stream: dict[str, list[_Endpoint]] = {}
    index = 0
    for table in pg.streams.values():
        n = len(table.writers) + len(table.readers)
        by_stream[table.name] = endpoints[index : index + n]
        index += n

    unifier = Unifier()
    # representative (owner) entries per stream, for resolution + messages
    reps: dict[str, dict] = {}

    def conflict_diag(
        stream: str, ep: _Endpoint, owner: _Endpoint, c: UnifyConflict
    ) -> None:
        sol = solution.streams[stream]
        if c.prop == "dtype" and not c.symbolic and _is_convertible(c.ours, c.theirs):
            lossy = not np.can_cast(np.dtype(c.ours), np.dtype(c.theirs),
                                    casting="safe")
            bag.report(
                "X504",
                f"stream {stream!r}: dtype mismatch between "
                f"{owner.definition_id}.{owner.port} ({c.ours}) and "
                f"{ep.definition_id}.{ep.port} ({c.theirs}); "
                f"{'lossy but ' if lossy else ''}auto-convertible — insert a "
                f"{CONVERTER_COMPONENT!r} component{context}",
                line=ep.line,
                where=ep.definition_id,
            )
            # Bridgeable direction (writer's dtype flows to a mismatched
            # reader) with the converter available: the runtimes insert
            # the bridge at build time, so note it rather than leave the
            # X504 as homework.
            if (
                owner.is_writer
                and not ep.is_writer
                and CONVERTER_COMPONENT in program.registry
            ):
                solution.conversions.append(
                    ConversionSite(
                        stream=stream,
                        reader=ep.instance_id,
                        port=ep.port,
                        src_dtype=c.ours,
                        dst_dtype=c.theirs,
                    )
                )
                bag.report(
                    "X506",
                    f"stream {stream!r}: a {CONVERTER_COMPONENT!r} "
                    f"({c.ours} -> {c.theirs}) is auto-inserted before "
                    f"{ep.definition_id}.{ep.port} at build time and runs "
                    "as a job of its own unless the opt-in chain compiler "
                    "absorbs it"
                    f"{context}",
                    line=ep.line,
                    where=ep.definition_id,
                )
            return
        sol.conflicted = True
        code = "X502" if c.symbolic else "X501"
        what = {
            "rank": "shape rank",
            "shape": "dimension",
        }.get(c.prop, c.prop)
        bag.report(
            code,
            f"stream {stream!r}: {what} mismatch between "
            f"{owner.definition_id}.{owner.port} ({c.ours}) and "
            f"{ep.definition_id}.{ep.port} ({c.theirs}){context}",
            line=ep.line,
            where=ep.definition_id,
        )

    for stream, eps in by_stream.items():
        sol = solution.streams.setdefault(stream, SolvedStream())
        rep: dict = {"kind": None, "dtype": None, "colorspace": None,
                     "dims": None, "owner": {}}
        reps[stream] = rep
        for ep in eps:
            if ep.term is None:
                sol.fully_declared = False
                continue
            sol.declared = True
            t = ep.term
            # kind --------------------------------------------------------
            if t.kind is not None:
                if rep["kind"] is None:
                    rep["kind"] = t.kind
                    rep["owner"]["kind"] = ep
                elif rep["kind"] != t.kind:
                    conflict_diag(
                        stream, ep, rep["owner"]["kind"],
                        UnifyConflict("kind", rep["kind"], t.kind),
                    )
            # dtype / colorspace -----------------------------------------
            for prop in ("dtype", "colorspace"):
                entry = getattr(t, prop)
                if entry is None:
                    continue
                if rep[prop] is None:
                    rep[prop] = entry
                    rep["owner"][prop] = ep
                    # still thread variables through the unifier so a
                    # component-scoped var links its other ports
                    if entry[0] == "var":
                        unifier.unify_tag(prop, entry, entry)
                    continue
                c = unifier.unify_tag(prop, rep[prop], entry)
                if c is not None:
                    conflict_diag(stream, ep, rep["owner"][prop], c)
                elif rep[prop][0] == "var" and entry[0] == "val":
                    rep[prop] = entry
            # dims --------------------------------------------------------
            if t.dims is not None:
                if rep["dims"] is None:
                    rep["dims"] = list(t.dims)
                    rep["owner"]["dims"] = ep
                    continue
                if len(rep["dims"]) != len(t.dims):
                    conflict_diag(
                        stream, ep, rep["owner"]["dims"],
                        UnifyConflict(
                            "rank", str(len(rep["dims"])), str(len(t.dims))
                        ),
                    )
                    continue
                for i, entry in enumerate(t.dims):
                    c = unifier.unify_dim(rep["dims"][i], entry)
                    if c is not None:
                        conflict_diag(stream, ep, rep["owner"]["dims"], c)
                    elif rep["dims"][i][0] == "any":
                        rep["dims"][i] = entry

    # resolve solved values ----------------------------------------------
    for stream, rep in reps.items():
        sol = solution.streams[stream]
        sol.kind = rep["kind"] or ("plane" if rep["dims"] or rep["dtype"] else None)
        sol.dtype = unifier.resolve_tag(rep["dtype"])
        sol.colorspace = unifier.resolve_tag(rep["colorspace"])
        if rep["dims"] is not None:
            sol.shape = tuple(unifier.resolve_dim(d) for d in rep["dims"])

    planes = solution.planes
    for stream, sol in solution.streams.items():
        if not (
            sol.conflicted
            or not sol.fully_declared
            or sol.kind != "plane"
            or sol.dtype is None
            or sol.shape is None
            or None in sol.shape
        ):
            shape = tuple(map(int, sol.shape))  # type: ignore[arg-type]
            planes[stream] = (shape, sol.dtype)

    # X507: a job.buffer is its stream's solved plane format;
    # X503: sliced writers must carve their solved height by their block
    for stream, eps in by_stream.items():
        for ep in eps:
            if (
                ep.allocates
                and stream not in planes
                and not solution.streams[stream].conflicted
            ):
                bag.report(
                    "X507",
                    f"writer {ep.definition_id!r} port {ep.port!r}: "
                    f"stream {stream!r} has no solved plane format to "
                    "allocate its buffer from (declare a concrete "
                    "kind=plane shape and dtype on every port of the "
                    f"stream){context}",
                    line=ep.line,
                    where=ep.definition_id,
                )
            if not ep.is_writer or ep.slice is None:
                continue
            t = ep.term
            if (
                t is None
                or t.block is None
                or t.dims is None
                or not t.dims
            ):
                continue
            height = unifier.resolve_dim(t.dims[0])
            if height is not None and height % t.block != 0:
                bag.report(
                    "X503",
                    f"sliced writer {ep.definition_id!r} port {ep.port!r}: "
                    f"height {height} is not divisible by its declared "
                    f"block of {t.block} rows ({ep.slice[1]} slices)",
                    line=ep.line,
                    where=ep.definition_id,
                )
    # an auto-inserted convert_plane allocates the X506 site's plane
    for site in solution.conversions:
        if (
            site.stream not in planes
            and not solution.streams[site.stream].conflicted
        ):
            inst = program.components[site.reader]
            bag.report(
                "X507",
                f"stream {site.stream!r}: the {CONVERTER_COMPONENT!r} "
                f"auto-inserted before {inst.definition_id}.{site.port} "
                "has no solved plane format to allocate its buffer from "
                "(declare a concrete kind=plane shape and dtype on every "
                f"port of the stream){context}",
                line=inst.port_lines.get(site.port) or inst.line,
                where=inst.definition_id,
            )
    return solution


def runtime_expectations(
    program, pg, *, solution: FormatSolution | None = None
) -> dict[str, tuple[tuple[int, ...], str]]:
    """The buffer plan: :attr:`FormatSolution.planes` of this build.

    Returns ``{stream name: (shape, dtype name)}`` for every stream whose
    reconciled format is a fully-concrete, conflict-free pixel plane with
    *every* endpoint declared: what ``ensure_buffer`` allocates and
    ``put`` checks.  Streams that carry objects (bitstream/coeffs/
    scalar), have open dimensions, touch an undeclared port, or failed
    reconciliation have no entry (a ``job.buffer`` writer of one is
    X507).
    """
    if solution is None:
        bag = DiagnosticBag()  # discarded: lint is where diagnostics surface
        solution = check_formats(bag, program, pg)
    return solution.planes


def auto_insert_converters(
    program,
    pg,
    registry,
    expectations: dict[str, tuple[tuple[int, ...], str]],
    solution: FormatSolution | None = None,
):
    """Insert ``convert_plane`` bridges at every X506 site of this build.

    Rewrites ``pg`` (graph, stream tables, active set) so each recorded
    :class:`ConversionSite` reader consumes a derived stream
    ``<stream>.as_<dtype>`` fed by an auto-inserted unsliced converter.
    The rewrite is deterministic in ``pg`` — the process backend's
    dispatcher and every worker run it independently and must agree on
    ids.  Returns ``(pg, overrides, expectations)`` where ``overrides``
    maps instance ids to the converter instances *and* the rebound reader
    instances (``Program.components`` is never mutated; component hosts
    consult the overrides first).
    """
    from dataclasses import replace as _replace

    from repro.core.program import ComponentInstance, ProgramGraph, StreamEndpoint, StreamTable

    if solution is None:
        bag = DiagnosticBag()
        solution = check_formats(bag, program, pg)
    sites = [
        s
        for s in solution.conversions
        if s.stream in pg.streams
        and any(r.instance_id == s.reader and r.port == s.port
                for r in pg.streams[s.stream].readers)
    ]
    if not sites or CONVERTER_COMPONENT not in registry:
        return pg, {}, expectations

    overrides: dict[str, ComponentInstance] = {}
    streams = {name: StreamTable(t.name, list(t.writers), list(t.readers))
               for name, t in pg.streams.items()}
    expectations = dict(expectations)
    graph = pg.graph
    # (stream, dst dtype) -> converter instance; readers wanting the same
    # conversion share one bridge
    converters: dict[tuple[str, str], ComponentInstance] = {}

    def reader_instance(instance_id: str) -> ComponentInstance:
        got = overrides.get(instance_id)
        if got is not None:
            return got
        return program.components[instance_id]

    for site in sites:
        key = (site.stream, site.dst_dtype)
        derived = f"{site.stream}.as_{site.dst_dtype}"
        conv = converters.get(key)
        if conv is None:
            reader = reader_instance(site.reader)
            conv_id = f"{derived}.convert"
            conv = ComponentInstance(
                instance_id=conv_id,
                definition_id=conv_id,
                class_name=CONVERTER_COMPONENT,
                params=registry[CONVERTER_COMPONENT].ports.bind(
                    conv_id, {"dtype": site.dst_dtype}),
                streams={"input": site.stream, "output": derived},
                slice=None,
                manager=reader.manager,
                options=reader.options,
            )
            converters[key] = conv
            overrides[conv.instance_id] = conv
            streams[site.stream].readers.append(
                StreamEndpoint(conv.instance_id, "input")
            )
            streams[derived] = StreamTable(
                derived, [StreamEndpoint(conv.instance_id, "output")], []
            )
            src_expect = expectations.get(site.stream)
            if src_expect is not None:
                expectations[derived] = (src_expect[0], site.dst_dtype)
        # rebind the reader port to the derived stream
        reader = reader_instance(site.reader)
        new_reader = _replace(
            reader, streams={**reader.streams, site.port: derived}
        )
        overrides[site.reader] = new_reader
        table = streams[site.stream]
        table.readers = [
            r
            for r in table.readers
            if not (r.instance_id == site.reader and r.port == site.port)
        ]
        streams[derived].readers.append(StreamEndpoint(site.reader, site.port))

    # Rebuild the graph: same nodes with rebound reader payloads, plus one
    # node per converter; original edges are kept wholesale (the old
    # writer->reader ordering is implied by writer->conv->reader anyway).
    from repro.graph.taskgraph import TaskGraph

    new_graph = TaskGraph()
    for node in graph:
        payload = node.payload
        if (
            isinstance(payload, ComponentInstance)
            and payload.instance_id in overrides
        ):
            payload = overrides[payload.instance_id]
        new_graph.add_node(
            node.node_id,
            label=node.label,
            kind=node.kind,
            payload=payload,
            weight=node.weight,
        )
    for conv in converters.values():
        new_graph.add_node(
            conv.instance_id,
            label=conv.instance_id,
            kind="task",
            payload=conv,
            weight=1,
        )
    for u, v in graph.edges():
        new_graph.add_edge(u, v)
    for (stream, _dst), conv in converters.items():
        for w in streams[stream].writers:
            if w.instance_id in new_graph:
                new_graph.add_edge(w.instance_id, conv.instance_id)
        for r in streams[conv.streams["output"]].readers:
            if r.instance_id in new_graph:
                new_graph.add_edge(conv.instance_id, r.instance_id)

    new_pg = ProgramGraph(
        graph=new_graph,
        streams=streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components
        + tuple(c.instance_id for c in converters.values()),
        crossdep_nodes=pg.crossdep_nodes,
    )
    return new_pg, overrides, expectations

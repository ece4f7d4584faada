"""The conformance oracle, and the fuzz-case checker built around it.

:func:`differential` holds an expanded program to ``ThreadedRuntime(nodes=1)``
on every executor row of its determinism class: the same sink records in
the same order, all iterations completed, the same ``reconfig_log``, the
same stream counters where they are comparable, every injected fault
fired, and no shared-memory segment the row's plane pool created left
behind.  ``tests/test_conformance.py`` runs it over the applications
(and, on the rows they name, for the per-executor tests);
:func:`check_case` over each generated case, once lint and build agree
(a mutated spec must be flagged by lint *and* refused at build, a clean
one must lint clean), with the case's knob widths and fault specs as
extra rows.

The rows keep to three determinism classes, so a mismatch is a bug, not
harness noise.  Static programs match at any width and depth.  An event
posted before ``run()`` splices at the pipeline's drain point, so depth
shifts the resume iteration and every row of that class shares one
depth.  Timer-driven reconfiguration runs one iteration at a time.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.fuzz.generator import FuzzCase

__all__ = ["CaseFailure", "Row", "build_spec", "check_case", "differential"]

#: queue/event names used by generated reconfigurable regions
QUEUE = "fz"
EVENT = "tog"


@dataclass
class CaseFailure:
    """One oracle violation; ``kind`` is stable across shrinking."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def _leaked(rt) -> list[str]:
    """The shared-memory segments ``rt``'s plane pool created that still
    exist.  Only these are charged to a row: a segment another process
    creates meanwhile is not the row's leak."""
    created = rt.pool.created if rt.pool is not None else ()
    return sorted(n for n in created if os.path.exists(f"/dev/shm/{n}"))


# -- spec construction -------------------------------------------------------


def _sliced(main, slices: int):
    """A slice region of ``slices`` copies, or none for one copy."""
    return main.parallel("slice", n=slices) if slices > 1 else nullcontext()


def _video_stage(main, idx: int, stage: dict, case: FuzzCase,
                 in_stream: str, out_stream: str) -> None:
    geometry = {"width": case.width, "height": case.height}
    if stage["kind"] == "convert":
        with _sliced(main, stage["slices"]):
            main.component(f"c{idx}", "convert_plane",
                           streams={"input": in_stream, "output": out_stream},
                           params={"dtype": "uint8", **geometry})
        return
    if stage["kind"] == "blur":
        params = {**geometry, "size": 3, "sigma": 1.0}
        with main.parallel("crossdep", n=stage["slices"]):
            with main.parblock():
                main.component(f"bh{idx}", "blur_h_field",
                               streams={"input": in_stream,
                                        "output": f"m{idx}"},
                               params=params)
            with main.parblock():
                main.component(f"bv{idx}", "blur_v_field",
                               streams={"input": f"m{idx}",
                                        "output": out_stream},
                               params=params)
        return
    raise ValueError(f"unknown video stage kind {stage['kind']!r}")


def _audio_stage(main, idx: int, stage: dict, case: FuzzCase,
                 in_stream: str, out_stream: str) -> None:
    with _sliced(main, stage["slices"]):
        main.component(f"f{idx}", "band_filter",
                       streams={"input": in_stream, "output": out_stream},
                       params={"channels": case.width, "block": case.height,
                               "taps": stage.get("taps", "smooth")})


def build_spec(case: FuzzCase):
    """Materialize the case as an XSPCL spec (mutation included)."""
    from repro.core.builder import AppBuilder

    b = AppBuilder()
    main = b.procedure("main")
    n = len(case.stages)
    streams = [f"s{i}" for i in range(n + 1)]

    if case.palette == "audio":
        main.component("src", "audio_source",
                       streams={"samples": streams[0]},
                       params={"channels": case.width, "block": case.height,
                               "seed": case.seed % 97})
    else:
        main.component("src", "luma_source", streams={"output": streams[0]},
                       params={"width": case.width, "height": case.height,
                               "seed": case.seed % 97})

    emit = _audio_stage if case.palette == "audio" else _video_stage
    wrapped = case.reconfig["stage"] if case.reconfig else None
    period = _timer_period(case)
    if period is not None:
        # multi-toggle schedules are timer-driven (and the rows then run
        # one iteration at a time)
        main.component("clock", "timer",
                       params={"queue": QUEUE, "period": period,
                               "event": EVENT})
    for idx, stage in enumerate(case.stages):
        if idx == wrapped:
            # While the option is off, the previous stage's writers are
            # rerouted straight to the option's output stream.
            with main.manager(f"mgr{idx}", queue=QUEUE) as mgr:
                mgr.on(EVENT, "toggle", option=f"opt{idx}")
                with main.option(f"opt{idx}", enabled=True,
                                 bypass=[(streams[idx], streams[idx + 1])]):
                    emit(main, idx, stage, case, streams[idx],
                         streams[idx + 1])
        else:
            emit(main, idx, stage, case, streams[idx], streams[idx + 1])

    sink_stream = streams[n]
    if case.mutation == "dangling":
        sink_stream = "nowhere"  # read a stream nothing writes
    if case.palette == "audio":
        sink_params: dict = {"channels": case.width, "block": case.height,
                             "collect": True}
        if case.mutation == "shape":
            sink_params["block"] = case.height + 1
        main.component("sink", "feature_sink",
                       streams={"input": sink_stream}, params=sink_params)
    else:
        sink_params = {"width": case.width, "height": case.height,
                       "collect": True}
        if case.mutation == "shape":
            sink_params["height"] = case.height + 1
        main.component("sink", "plane_sink", streams={"input": sink_stream},
                       params=sink_params)
    if case.mutation == "unknown_class":
        main.component("ghost", "no_such_class",
                       streams={"input": streams[0]})
    return b.build()


# -- execution ---------------------------------------------------------------


def _timer_period(case: FuzzCase) -> int | None:
    """Period for multi-toggle reconfig cases (timer-driven)."""
    if case.reconfig is None or case.reconfig["toggles"] <= 1:
        return None
    return max(1, case.iterations // (case.reconfig["toggles"] + 1))


class Row(NamedTuple):
    """One executor configuration: ``sim`` executes, ``sim-grouped`` also
    groups linear chains; ``faults`` uses ``--inject-fault`` syntax."""

    backend: str  # threaded | process | sim | sim-grouped
    width: int
    depth: int
    faults: str | None = None

    def __str__(self) -> str:
        return f"{self.backend}-{self.width}@{self.depth}" + (
            f"[{self.faults}]" if self.faults else "")


#: (backend, width, depth) of every row, per class: the first, one
#: thread, is the reference; the rest hold each combination that a
#: per-backend identity test or the fuzzer used to run
ROWS = {
    "static": (
        ("threaded", 1, 2), ("threaded", 1, 1), ("threaded", 2, 2),
        ("threaded", 2, 3), ("threaded", 2, 5), ("threaded", 3, 4),
        ("process", 1, 1), ("process", 1, 2), ("process", 1, 4),
        ("process", 1, 8), ("process", 2, 2), ("process", 3, 2),
        ("process", 4, 1), ("process", 4, 2), ("process", 4, 4),
        ("process", 4, 8), ("sim", 2, 2), ("sim", 2, 5), ("sim", 3, 4),
        ("sim-grouped", 2, 2), ("sim-grouped", 2, 3),
    ),
    "posted": (
        ("threaded", 1, 2), ("threaded", 2, 2), ("process", 1, 2),
        ("process", 2, 2), ("process", 4, 2), ("sim", 1, 2), ("sim", 2, 2),
    ),
    "timed": (
        ("threaded", 1, 1), ("threaded", 2, 1), ("process", 1, 1),
        ("process", 2, 1), ("sim", 1, 1), ("sim", 2, 1),
    ),
}


def determinism_class(program, post: tuple[str, str] | None) -> str:
    """``static``, ``posted`` (one event before ``run()``) or ``timed``."""
    if post is not None:
        return "posted"
    return "timed" if program.managers else "static"


def _runtime(row: Row, program, registry, iterations: int):
    from repro.hinch import ProcessRuntime, ThreadedRuntime
    from repro.spacecake import SimRuntime

    common = {"pipeline_depth": row.depth, "max_iterations": iterations}
    if row.backend == "threaded":
        return ThreadedRuntime(program, registry, nodes=row.width, **common)
    if row.backend == "process":
        return ProcessRuntime(program, registry, workers=row.width,
                              faults=row.faults, **common)
    return SimRuntime(program, registry, nodes=row.width, execute=True,
                      group_chains=row.backend == "sim-grouped", **common)


def _first_difference(want: list, got: list) -> str | None:
    for i, (w, g) in enumerate(zip(want, got)):
        for a, b in zip(w, g):
            if (a.shape, a.dtype) != (b.shape, b.dtype):
                return f"iteration {i}: {a.dtype}{a.shape} -> {b.dtype}{b.shape}"
            if not np.array_equal(a, b):
                return (f"iteration {i}: first difference at "
                        f"{np.argwhere(a != b)[0].tolist()}")
    return None


def differential(program, registry, *, iterations: int,
                 post: tuple[str, str] | None = None,
                 rows: Iterable[Row] | None = None,
                 extra_rows: Iterable[Row] = ()) -> CaseFailure | None:
    """Hold every row of ``program``'s class to the one-worker run.

    The reference is the class's first row in :data:`ROWS`,
    ``ThreadedRuntime(nodes=1)``; every other row (or each of ``rows``,
    when given) and each of ``extra_rows`` must match it.  Rows that run
    every copy (the reference runs one per row-contract region) and report
    ``stream_stats`` (the simulator does not) must also agree on those,
    unless faults retried a read or the chain compiler keeps a stream
    out of the store in some configurations only.  A program with
    managers must splice on the reference.  ``post`` is a ``(queue,
    event)`` posted before each ``run()``.  ``None``: every row conforms.
    """
    from repro.errors import ReproError
    from repro.hinch.fusion import FusedChain

    table = ROWS[determinism_class(program, post)]
    rows = [Row(*table[0]),
            *(Row(*spec) for spec in (table[1:] if rows is None else rows)),
            *extra_rows]
    reference = stats_reference = None
    for row in rows:
        try:
            rt = _runtime(row, program, registry, iterations)
            if post is not None:
                rt.post_event(*post)
            result = rt.run()
        except ReproError as exc:
            return CaseFailure(
                "run-raised", f"{row}: {type(exc).__name__}: {exc}")
        leaked = _leaked(rt)
        unfired = [e["detail"] for e in getattr(result, "fault_events", ())
                   if e.get("kind") == "unfired"]
        sink = result.components["sink"]  # records as tuples of planes
        outputs = ([(f.y, f.u, f.v) for f in sink.ordered_frames()]
                   if hasattr(sink, "ordered_frames")
                   else [(plane,) for plane in sink.ordered_planes()])
        stats = getattr(result, "stream_stats", None)
        if leaked:
            return CaseFailure("shm-leak", f"{row}: leaked {leaked}")
        if {result.completed_iterations, len(outputs)} != {iterations}:
            return CaseFailure("short-run", f"{row}: {len(outputs)} records, "
                               f"{result.completed_iterations} of "
                               f"{iterations} iterations completed")
        if unfired:  # fault indices are bounded so that every spec fires
            return CaseFailure("fault-unfired", f"{row}: {unfired[0]}")
        if stats is not None and not (rt.one_copy or row.faults or (
                rt.chain_headroom and program.managers)):
            stats_reference = stats_reference or (row, stats)
            fused = {name for node in rt.pg.graph
                     if isinstance(node.payload, FusedChain)
                     for name in node.payload.internal}
            want = {k: v for k, v in stats_reference[1].items() if k not in fused}
            for name in sorted(want.keys() | stats.keys()):
                if stats.get(name) != want.get(name):
                    return CaseFailure(
                        "stats-mismatch", f"{row} counts {name} "
                        f"{stats.get(name)}, {stats_reference[0]} "
                        f"{want.get(name)}")
        if reference is None:
            if program.managers and not rt.reconfig_log:
                return CaseFailure("never-reconfigured", f"{row}: no splice "
                                   f"in {iterations} iterations")
            reference = row, outputs, rt.reconfig_log
            continue
        difference = _first_difference(reference[1], outputs)
        if difference is not None:
            return CaseFailure("output-mismatch",
                               f"{row} vs {reference[0]}: {difference}")
        if rt.reconfig_log != reference[2]:
            return CaseFailure(
                "reconfig-mismatch", f"{row} spliced at {rt.reconfig_log}, "
                f"{reference[0]} at {reference[2]}")
    return None


def _case_rows(case: FuzzCase, kind: str) -> list[Row]:
    """The case's knob widths and fault specs, as rows of its class."""
    depth = ROWS[kind][0][2]  # the reference's: posted and timed keep it
    rows = [] if kind == "timed" else [Row(
        "process", case.knobs.get("workers", 2),
        case.knobs.get("depth", depth) if kind == "static" else depth)]
    if case.faults:
        rows.append(Row("process", 1 if kind == "timed" else 2, depth,
                        ",".join(case.faults)))
    return rows


def check_case(case: FuzzCase, *, registry=None) -> CaseFailure | None:
    """Run every oracle over one case.  ``None`` means the case passed."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.engine import lint_spec
    from repro.components.registry import default_ports, default_registry
    from repro.core.expander import expand
    from repro.errors import ReproError

    registry = registry or default_registry()
    ports = default_ports(registry)

    try:
        spec = build_spec(case)
    except ReproError as exc:  # the generator must only emit buildable ASTs
        return CaseFailure("generator-invalid", f"build_spec raised: {exc}")

    diags = lint_spec(spec, ports=ports, name=f"fuzz-{case.seed}")
    errors = [d for d in diags if d.severity is Severity.ERROR]

    if case.mutation is not None:
        if not errors:
            return CaseFailure(
                "mutation-not-linted",
                f"mutation {case.mutation!r} produced no lint error",
            )
        # lint rejected it; the build must too, on every backend — never
        # reach job execution.  Constructing a runtime spawns nothing, so
        # a runtime that was built must have left no segment behind.
        accepted = []
        leaked = []
        try:
            program = expand(spec, ports, name=f"fuzz-{case.seed}")
        except ReproError:
            return None  # agreement: rejected at expand
        for backend in ("threaded", "process", "sim"):
            try:
                rt = _runtime(Row(backend, 1, 1), program, registry,
                              case.iterations)
            except ReproError:
                continue  # agreement: rejected at build
            accepted.append(backend)
            leaked += _leaked(rt)
        if leaked:
            return CaseFailure("shm-leak", f"refused build leaked {leaked}")
        if accepted:
            return CaseFailure(
                "lint-build-disagreement",
                f"lint rejected ({errors[0].code}) but {', '.join(accepted)} "
                f"accepted mutation {case.mutation!r}",
            )
        return None

    if errors:
        return CaseFailure(
            "clean-case-linted",
            f"unmutated case flagged: {errors[0].code} {errors[0].message}",
        )

    try:
        program = expand(spec, ports, name=f"fuzz-{case.seed}")
    except ReproError as exc:
        return CaseFailure(
            "lint-build-disagreement",
            f"lint clean but expand raised: {exc}",
        )

    post = ((QUEUE, EVENT)
            if case.reconfig is not None and _timer_period(case) is None
            else None)
    return differential(
        program, registry, iterations=case.iterations, post=post,
        extra_rows=_case_rows(case, determinism_class(program, post)))

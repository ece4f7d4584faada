"""The lint pass driver: parse -> validate -> expand -> analyze.

:func:`lint_spec` runs every analysis family over one specification and
returns the deduplicated, source-ordered diagnostic list:

1. **validation** (X1xx) — the collect-all refactor of the paper's XSPCL
   checks (:func:`repro.core.validator.collect_diagnostics`);
2. **liveness** (X2xx) — AST dead-flow passes, plus dead-stream detection
   over the stream tables of every *reachable* configuration;
3. **concurrency/safety** (X3xx) — per-configuration deadlock, stream
   sanity, SP-ness, splice checks, and event-queue plumbing;
4. **performance** (X4xx) — fusion, slicing, and cost-model lint on the
   default configuration.

Reconfiguration safety is checked against the configurations the manager
handlers can actually *reach*: starting from the per-option defaults,
every manager event is applied (its enable/disable/toggle handlers fire
atomically, in declaration order) until the state set closes — so a
two-option toggle pair like Blur-3/5 is checked as ``(on,off)`` and
``(off,on)``, never the unreachable ``(off,off)``.  Each reachable
configuration must splice into a buildable graph (X307 otherwise).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.analysis import concurrency, formats, liveness, perf
from repro.analysis.diagnostics import Diagnostic, DiagnosticBag
from repro.core.ast import ParallelNode, Spec, walk_body
from repro.core.expander import expand
from repro.core.parser import parse_string
from repro.core.validator import check_requests, collect_diagnostics
from repro.core.ports import PortSpec
from repro.errors import ParseError, ReproError

__all__ = [
    "lint_spec",
    "lint_string",
    "lint_file",
    "reachable_configurations",
    "solve_formats",
]

#: Safety valve: stop enumerating configurations beyond this many states.
MAX_CONFIGURATIONS = 64


def reachable_configurations(program, cap: int = MAX_CONFIGURATIONS):
    """Option-state assignments reachable from the defaults via events.

    Returns a list of ``dict[option_qname, bool]``; the first entry is
    always the default configuration.  Exploration is breadth-first over
    manager events and capped at ``cap`` states.
    """
    default = program.default_option_states()
    start = tuple(sorted(default.items()))
    seen = {start}
    order = [start]
    queue = [start]
    while queue and len(seen) < cap:
        state = dict(queue.pop(0))
        for mgr in program.managers.values():
            events = sorted({h.event for h in mgr.handlers})
            for event in events:
                nxt = dict(state)
                for handler in mgr.handlers_for(event):
                    if handler.option is None:
                        continue
                    if handler.action == "enable":
                        nxt[handler.option] = True
                    elif handler.action == "disable":
                        nxt[handler.option] = False
                    elif handler.action == "toggle":
                        nxt[handler.option] = not nxt[handler.option]
                key = tuple(sorted(nxt.items()))
                if key not in seen and len(seen) < cap:
                    seen.add(key)
                    order.append(key)
                    queue.append(key)
    return [dict(key) for key in order]


def _config_context(states: Mapping[str, bool], default: Mapping[str, bool]) -> str:
    diff = {k: v for k, v in states.items() if default.get(k) != v}
    if not diff:
        return ""
    flips = ", ".join(
        f"{name}={'on' if on else 'off'}" for name, on in sorted(diff.items())
    )
    return f" [configuration: {flips}]"


def solve_formats(program) -> list:
    """Solved per-stream formats for every reachable configuration.

    Returns a list of :class:`repro.analysis.formats.FormatSolution`, one
    per reachable option configuration (first is the default), skipping
    configurations whose graphs fail to splice.  Diagnostics are
    discarded — use :func:`lint_spec` for those.
    """
    solutions = []
    for states in reachable_configurations(program):
        try:
            pg = program.build_graph(states, check=False)
        except ReproError:
            continue
        bag = DiagnosticBag()
        solutions.append(formats.check_formats(bag, program, pg))
    return solutions


def _crossdep_lines(spec: Spec) -> tuple[int | None, ...]:
    lines: list[int | None] = []
    for proc in spec.procedures.values():
        for node in walk_body(proc.body):
            if isinstance(node, ParallelNode) and node.shape == "crossdep":
                lines.append(node.line)
    return tuple(lines)


def lint_spec(
    spec: Spec,
    *,
    ports: Mapping[str, PortSpec] | None = None,
    classes: Mapping[str, type] | None = None,
    name: str = "app",
    machine_nodes: int | None = None,
) -> list[Diagnostic]:
    """Run all analysis passes over a parsed specification.

    ``ports`` is the PortSpec registry (component classes / stream
    directions); without it only the AST-level passes run, since stream
    tables need port directions.  ``classes`` optionally maps class names
    to implementations so the cost-model lint (X403) can inspect them.
    ``machine_nodes`` is the deployment's worker count; when given, the
    over-slicing lint (X404) flags replication wider than the machine.
    """
    bag = DiagnosticBag()
    bag.extend(collect_diagnostics(spec, registry=ports).items)
    liveness.run_ast_passes(bag, spec)
    if bag.has_errors or ports is None:
        return bag.sorted()

    try:
        program = expand(spec, ports, name=name, validated=True)
    except ReproError as exc:
        bag.report("X118", f"expansion failed: {exc}")
        return bag.sorted()
    check_requests(bag, program)

    crossdep_lines = _crossdep_lines(spec)
    default_states = program.default_option_states()
    instance_lines = {
        iid: inst.line for iid, inst in program.components.items()
    }

    tables_per_config: list[dict] = []
    default_pg = None
    for states in reachable_configurations(program):
        context = _config_context(states, default_states)
        try:
            pg = program.build_graph(states, check=False)
        except ReproError as exc:
            bag.report(
                "X307",
                f"reconfigured option states fail to splice: {exc}{context}",
            )
            continue
        tables_per_config.append(pg.streams)
        concurrency.check_configuration(
            bag, program, pg, context=context, crossdep_lines=crossdep_lines
        )
        formats.check_formats(bag, program, pg, context=context)
        if not context:
            default_pg = pg

    liveness.check_dead_streams(bag, tables_per_config, instance_lines)
    concurrency.check_event_queues(bag, program)
    if default_pg is not None:
        perf.run_perf_passes(bag, program, default_pg, classes,
                             machine_nodes=machine_nodes)
    return bag.sorted()


def lint_string(
    text: str,
    *,
    ports: Mapping[str, PortSpec] | None = None,
    classes: Mapping[str, type] | None = None,
    name: str = "app",
    machine_nodes: int | None = None,
) -> list[Diagnostic]:
    """Lint XSPCL source text; parse failures become an X001 diagnostic."""
    try:
        spec = parse_string(text)
    except ParseError as exc:
        bag = DiagnosticBag()
        bag.report("X001", str(exc), line=exc.line)
        return bag.sorted()
    return lint_spec(spec, ports=ports, classes=classes, name=name,
                     machine_nodes=machine_nodes)


def lint_file(
    path: str | Path,
    *,
    ports: Mapping[str, PortSpec] | None = None,
    classes: Mapping[str, type] | None = None,
    machine_nodes: int | None = None,
) -> list[Diagnostic]:
    """Lint an XSPCL file; the returned diagnostics carry ``path``."""
    path = Path(path)
    diagnostics = lint_string(
        path.read_text(encoding="utf-8"),
        ports=ports,
        classes=classes,
        name=path.stem,
        machine_nodes=machine_nodes,
    )
    return [
        Diagnostic(
            code=d.code,
            severity=d.severity,
            message=d.message,
            line=d.line,
            where=d.where,
            path=str(path),
        )
        for d in diagnostics
    ]

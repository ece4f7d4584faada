"""Semantic validation of an XSPCL :class:`~repro.core.ast.Spec`.

Checks performed (each with a test in ``tests/core/test_validator.py``):

1. a procedure named ``main`` exists and takes no formals;
2. every ``<call>`` names an existing procedure;
3. the call graph is acyclic — "recursion is currently not supported as
   there is no way to end the recursion" (paper §3.2);
4. call arguments match the callee's formals exactly (streams) or up to
   defaults (params), with no unknown names;
5. instance names (components, calls, managers) are unique inside each
   procedure;
6. ``${name}`` placeholders in stream refs / param values / parallel ``n``
   resolve to a formal of the enclosing procedure;
7. every ``<option>`` lies inside some ``<manager>``'s body; option names
   are unique per manager; each enable/disable/toggle handler references
   an option of its own manager;
8. slice/crossdep ``n`` is a positive integer once resolved (checked here
   when literal, at expansion when parametric);
9. with a registry: component classes exist, stream bindings name exactly
   the class's declared ports, init params satisfy the class schema
   (names: X116; literal values, bound by
   :meth:`~repro.core.ports.PortSpec.bind`: X120), and so do the
   assignments of a literal ``<reconfigure request>``.

The checks are built on the collect-all diagnostic machinery of
:mod:`repro.analysis.diagnostics`: :func:`collect_diagnostics` reports
**every** violation (codes ``X101``–``X120``, with source lines), and
:func:`validate` keeps the historical library API by raising a single
:class:`~repro.errors.ValidationError` that aggregates all of them.

:func:`check_requests` checks what only expansion settles: which
components a request reaches (a manager broadcasts to its members, which
calls may bring in) and which of them are data-parallel copies
(``X116``/``X120``/``X121``); ``xspcl lint`` runs it on the expanded
program.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.analysis.diagnostics import DiagnosticBag, Severity
from repro.core.ast import (
    BodyNode,
    CallNode,
    ComponentNode,
    ManagerNode,
    OptionNode,
    ParallelNode,
    Procedure,
    Spec,
)
from repro.core.formats import FormatError, parse_format
from repro.core.parser import parse_value
from repro.core.ports import PortSpec
from repro.core.program import Program
from repro.errors import ComponentError, ParamError, ValidationError

__all__ = ["validate", "collect_diagnostics", "check_requests", "names_slice"]

_PLACEHOLDER = re.compile(r"\$\{([^}]*)\}")


def _placeholders(value: object) -> list[str]:
    if isinstance(value, str):
        return _PLACEHOLDER.findall(value)
    return []


def _assignments(request: str) -> dict[str, object]:
    """The param assignments of a reconfigure request (``slice=`` aside)."""
    assignments = {}
    for part in request.split(";"):
        key, sep, value = part.partition("=")
        if sep and key.strip() != "slice":
            assignments[key.strip()] = parse_value(value.strip())
    return assignments


def names_slice(request: str) -> bool:
    """Does a reconfigure request assign ``slice``?"""
    return any(part.partition("=")[0].strip() == "slice"
               for part in request.split(";"))


def _bind_request(
    bag: DiagnosticBag, spec: PortSpec, name: str, params: Mapping,
    request: str, *, prefix: str = "", line: int | None,
) -> None:
    """Bind ``request``'s assignments over ``params`` as a run would."""
    try:
        spec.bind(name, {**params, **_assignments(request)})
    except ParamError as exc:
        bag.report("X120", prefix + str(exc), line=line)
    except ComponentError as exc:
        bag.report("X116", prefix + str(exc), line=line)


def check_requests(bag: DiagnosticBag, program: Program) -> None:
    """Reconfigure requests whose reach only expansion settles.

    A data-parallel copy learns its rows from the expander (and, at one
    worker, the executor keeps one copy over the whole frame): a request
    that sets ``slice`` on a copy, or a manager broadcast that sets it on
    whatever members it reaches, makes copies compute the wrong band
    (X121).  A manager's literal broadcast goes to every member: its
    assignments bind against each member class's schema (X120, or X116
    for a key the class does not declare), once per class.  A Python
    manager's ``${payload}`` request is only known when its event
    arrives: :meth:`~repro.hinch.engine.Coordinator.send_reconfigure_request`
    refuses a ``slice`` one then.
    """
    for inst in program.components.values():
        if inst.slice is not None and inst.reconfigure is not None and (
                names_slice(inst.reconfigure)):
            bag.report(
                "X121",
                f"component {inst.definition_id!r} is a data-parallel copy: "
                f"its reconfigure request {inst.reconfigure!r} may not set "
                "'slice' (the expander assigns each copy its rows)",
                line=inst.line,
            )
    for mgr in program.managers.values():
        for handler in mgr.handlers:
            request = handler.request  # substituted by the expander
            if handler.action != "reconfigure" or request is None:
                continue
            prefix = f"manager {mgr.qname!r} request {request!r}: "
            if names_slice(request):
                bag.report(
                    "X121",
                    prefix + "a broadcast may not set 'slice' (the expander "
                    "assigns each data-parallel copy its rows)",
                    line=handler.line,
                )
                continue
            bound: set[str] = set()
            for member in mgr.members:
                inst = program.components[member]
                if inst.class_name not in bound:
                    bound.add(inst.class_name)
                    _bind_request(
                        bag, program.registry[inst.class_name],
                        inst.definition_id, inst.params, request,
                        prefix=prefix, line=handler.line,
                    )


def _check_placeholders(
    bag: DiagnosticBag,
    proc: Procedure,
    value: object,
    what: str,
    line: int | None = None,
) -> None:
    formals = proc.formal_param_names() | proc.formal_stream_names()
    for name in _placeholders(value):
        if not name:
            bag.report(
                "X108",
                f"{what} in procedure {proc.name!r} has an empty ${{}} placeholder",
                line=line,
            )
        elif name not in formals:
            bag.report(
                "X108",
                f"{what} in procedure {proc.name!r} references unknown formal "
                f"${{{name}}}",
                line=line,
            )


def _iter_calls(body: tuple[BodyNode, ...]):
    for node in body:
        if isinstance(node, CallNode):
            yield node
        elif isinstance(node, ParallelNode):
            for pb in node.parblocks:
                yield from _iter_calls(pb)
        elif isinstance(node, (ManagerNode, OptionNode)):
            yield from _iter_calls(node.body)


def _check_call_graph_acyclic(bag: DiagnosticBag, spec: Spec) -> None:
    edges: dict[str, set[str]] = {
        name: {c.procedure for c in _iter_calls(proc.body)}
        for name, proc in spec.procedures.items()
    }
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in edges}

    def visit(name: str, stack: list[str]) -> None:
        color[name] = GRAY
        stack.append(name)
        for callee in sorted(edges.get(name, ())):
            if callee not in edges:
                continue  # unknown callee reported elsewhere
            if color[callee] == GRAY:
                cycle = stack[stack.index(callee):] + [callee]
                bag.report(
                    "X104",
                    "recursive procedure calls are not supported: "
                    + " -> ".join(cycle),
                    line=spec.procedures[callee].line,
                )
                continue
            if color[callee] == WHITE:
                visit(callee, stack)
        stack.pop()
        color[name] = BLACK

    for name in edges:
        if color[name] == WHITE:
            visit(name, [])


class _ProcedureChecker:
    def __init__(
        self,
        bag: DiagnosticBag,
        spec: Spec,
        proc: Procedure,
        registry: Mapping[str, PortSpec] | None,
    ) -> None:
        self.bag = bag
        self.spec = spec
        self.proc = proc
        self.registry = registry
        self.instance_names: set[str] = set()

    def run(self) -> None:
        self._check_body(self.proc.body, inside_manager=False)

    def _register_instance(self, name: str, what: str, line: int | None) -> None:
        if name in self.instance_names:
            self.bag.report(
                "X107",
                f"duplicate {what} instance name {name!r} in procedure "
                f"{self.proc.name!r}",
                line=line,
            )
        self.instance_names.add(name)

    def _check_body(self, body: tuple[BodyNode, ...], *, inside_manager: bool) -> None:
        for node in body:
            if isinstance(node, ComponentNode):
                self._check_component(node)
            elif isinstance(node, CallNode):
                self._check_call(node)
            elif isinstance(node, ParallelNode):
                self._check_parallel(node, inside_manager=inside_manager)
            elif isinstance(node, ManagerNode):
                self._check_manager(node)
            elif isinstance(node, OptionNode):
                if not inside_manager:
                    self.bag.report(
                        "X109",
                        f"option {node.name!r} in procedure {self.proc.name!r} "
                        "is not contained in any manager",
                        line=node.line,
                    )
                self._check_body(node.body, inside_manager=True)
                for bp in node.bypasses:
                    _check_placeholders(
                        self.bag, self.proc, bp.src,
                        f"bypass of option {node.name!r}", bp.line,
                    )
                    _check_placeholders(
                        self.bag, self.proc, bp.dst,
                        f"bypass of option {node.name!r}", bp.line,
                    )
            else:  # pragma: no cover - parser prevents this
                raise ValidationError(f"unknown body node {type(node).__name__}")

    def _check_component(self, comp: ComponentNode) -> None:
        self._register_instance(comp.name, "component", comp.line)
        for port, ref in comp.streams.items():
            _check_placeholders(
                self.bag, self.proc, ref,
                f"stream binding {port!r} of component {comp.name!r}", comp.line,
            )
        for port, fmt in comp.formats.items():
            line = comp.stream_lines.get(port, comp.line)
            if port not in comp.streams:
                self.bag.report(
                    "X119",
                    f"component {comp.name!r}: format declared for unbound "
                    f"port {port!r}",
                    line=line,
                )
                continue
            _check_placeholders(
                self.bag, self.proc, fmt,
                f"format of port {port!r} of component {comp.name!r}", line,
            )
            if "${" not in fmt:
                try:
                    parse_format(fmt)
                except FormatError as exc:
                    self.bag.report(
                        "X119",
                        f"component {comp.name!r}, port {port!r}: {exc}",
                        line=line,
                    )
        for pname, value in comp.params.items():
            _check_placeholders(
                self.bag, self.proc, value,
                f"param {pname!r} of component {comp.name!r}", comp.line,
            )
        if self.registry is not None:
            spec = self.registry.get(comp.class_name)
            if spec is None:
                self.bag.report(
                    "X114",
                    f"component {comp.name!r} uses unknown class "
                    f"{comp.class_name!r}",
                    line=comp.line,
                )
                return
            declared = set(spec.all_ports)
            bound = set(comp.streams)
            if bound != declared:
                missing = sorted(declared - bound)
                extra = sorted(bound - declared)
                parts = []
                if missing:
                    parts.append(f"unbound ports {missing}")
                if extra:
                    parts.append(f"unknown ports {extra}")
                self.bag.report(
                    "X115",
                    f"component {comp.name!r} (class {comp.class_name!r}): "
                    + "; ".join(parts),
                    line=comp.line,
                )
            try:
                params = spec.bind(comp.name, comp.params)
            except ParamError as exc:
                self.bag.report("X120", str(exc), line=comp.line)
                return
            except ComponentError as exc:
                self.bag.report("X116", str(exc), line=comp.line)
                return
            # applied at creation (Component.reconfigure): bind it here
            # as a run would, unless the expander still substitutes it
            request = comp.reconfigure
            if request is not None and "${" not in request:
                _bind_request(self.bag, spec, comp.name, params, request,
                              line=comp.line)

    def _check_call(self, call: CallNode) -> None:
        self._register_instance(call.name, "call", call.line)
        callee = self.spec.procedures.get(call.procedure)
        if callee is None:
            self.bag.report(
                "X103",
                f"call {call.name!r} targets unknown procedure {call.procedure!r}",
                line=call.line,
            )
            return
        # Stream arguments must cover the formals exactly.
        formals = callee.formal_stream_names()
        args = set(call.streams)
        if args != formals:
            missing = sorted(formals - args)
            extra = sorted(args - formals)
            parts = []
            if missing:
                parts.append(f"missing stream args {missing}")
            if extra:
                parts.append(f"unknown stream args {extra}")
            self.bag.report(
                "X105",
                f"call {call.name!r} -> {call.procedure!r}: " + "; ".join(parts),
                line=call.line,
            )
        # Param arguments: subset of formals; all non-default formals given.
        param_formals = {f.name: f for f in callee.param_formals}
        unknown = sorted(set(call.params) - set(param_formals))
        if unknown:
            self.bag.report(
                "X106",
                f"call {call.name!r} -> {call.procedure!r}: unknown params {unknown}",
                line=call.line,
            )
        missing = sorted(
            name
            for name, formal in param_formals.items()
            if formal.default is None and name not in call.params
        )
        if missing:
            self.bag.report(
                "X106",
                f"call {call.name!r} -> {call.procedure!r}: missing required "
                f"params {missing}",
                line=call.line,
            )
        for sname, ref in call.streams.items():
            _check_placeholders(
                self.bag, self.proc, ref,
                f"stream arg {sname!r} of call {call.name!r}", call.line,
            )
        for pname, value in call.params.items():
            _check_placeholders(
                self.bag, self.proc, value,
                f"param {pname!r} of call {call.name!r}", call.line,
            )

    def _check_parallel(self, par: ParallelNode, *, inside_manager: bool) -> None:
        if par.n is not None:
            _check_placeholders(self.bag, self.proc, par.n, "parallel n", par.line)
            if isinstance(par.n, bool) or (
                isinstance(par.n, (int, float)) and not isinstance(par.n, bool)
                and (not float(par.n).is_integer() or int(par.n) < 1)
            ):
                self.bag.report(
                    "X112",
                    f"parallel n must be a positive integer, got {par.n!r}",
                    line=par.line,
                )
        for pb in par.parblocks:
            if not pb:
                self.bag.report(
                    "X113",
                    f"empty <parblock> in procedure {self.proc.name!r}",
                    line=par.line,
                )
                continue
            self._check_body(pb, inside_manager=inside_manager)

    def _check_manager(self, mgr: ManagerNode) -> None:
        self._register_instance(mgr.name, "manager", mgr.line)
        # Options belonging to this manager: any depth below, but not
        # crossing into a nested manager.
        options: dict[str, OptionNode] = {}

        def collect(body: tuple[BodyNode, ...]) -> None:
            for node in body:
                if isinstance(node, OptionNode):
                    if node.name in options:
                        self.bag.report(
                            "X110",
                            f"manager {mgr.name!r} has duplicate option "
                            f"{node.name!r}",
                            line=node.line,
                        )
                    options[node.name] = node
                    collect(node.body)
                elif isinstance(node, ParallelNode):
                    for pb in node.parblocks:
                        collect(pb)
                # ManagerNode: stop — nested managers own their options.

        collect(mgr.body)
        for handler in mgr.handlers:
            if handler.action in ("enable", "disable", "toggle"):
                assert handler.option is not None  # parser guarantees
                if handler.option not in options:
                    self.bag.report(
                        "X111",
                        f"manager {mgr.name!r}: handler for event "
                        f"{handler.event!r} references unknown option "
                        f"{handler.option!r}",
                        line=handler.line,
                    )
        self._check_body(mgr.body, inside_manager=True)


def collect_diagnostics(
    spec: Spec, *, registry: Mapping[str, PortSpec] | None = None
) -> DiagnosticBag:
    """Run all semantic checks, collecting every violation.

    Unlike :func:`validate` this never raises on semantic problems; it
    returns a :class:`~repro.analysis.diagnostics.DiagnosticBag` whose
    entries carry stable codes and source lines.  ``xspcl lint`` and
    ``xspcl validate`` are built on this entry point.
    """
    bag = DiagnosticBag()
    if "main" not in spec.procedures:
        bag.report("X101", "specification has no procedure named 'main'")
    else:
        main = spec.procedures["main"]
        if main.stream_formals or main.param_formals:
            bag.report(
                "X102",
                "procedure 'main' must not declare formal parameters",
                line=main.line,
            )
    for proc in spec.procedures.values():
        for formal in proc.param_formals:
            if _placeholders(formal.default):
                bag.report(
                    "X117",
                    f"procedure {proc.name!r}: default of param "
                    f"{formal.name!r} must be a literal, not a placeholder",
                    line=proc.line,
                )
    _check_call_graph_acyclic(bag, spec)
    for proc in spec.procedures.values():
        _ProcedureChecker(bag, spec, proc, registry).run()
    return bag


def validate(spec: Spec, *, registry: Mapping[str, PortSpec] | None = None) -> Spec:
    """Validate ``spec``; returns it unchanged on success.

    ``registry`` maps component class names to :class:`PortSpec`; when
    given, component classes, port bindings and param schemas are checked
    too.

    Raises :class:`~repro.errors.ValidationError` aggregating **all**
    violations (one per line); the exception's ``diagnostics`` attribute
    holds the structured :class:`Diagnostic` list.
    """
    bag = collect_diagnostics(spec, registry=registry)
    errors = [d for d in bag.sorted() if d.severity >= Severity.ERROR]
    if errors:
        if len(errors) == 1:
            message = errors[0].message
        else:
            message = f"{len(errors)} validation errors:\n" + "\n".join(
                "  " + d.message for d in errors
            )
        exc = ValidationError(message)
        exc.diagnostics = errors  # type: ignore[attr-defined]
        raise exc
    return spec

"""XSPCL XML parser: text -> :class:`~repro.core.ast.Spec`.

Only the standard library ``xml.etree`` is used.  A custom tree builder
records source line numbers on every element so diagnostics can point at
the offending tag — the paper positions XSPCL as a machine-written
intermediate language, but humans debug it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import xml.parsers.expat as expat
from pathlib import Path

from repro.core.ast import (
    HANDLER_ACTIONS,
    PARALLEL_SHAPES,
    BodyNode,
    Bypass,
    CallNode,
    ComponentNode,
    EventHandler,
    ManagerNode,
    OptionNode,
    ParallelNode,
    ParamFormal,
    Procedure,
    Spec,
    StreamFormal,
    Value,
)
from repro.errors import ParseError

__all__ = ["parse_string", "parse_file", "parse_value"]


class _Elem(ET.Element):
    """Python subclass so elements accept a ``_line`` attribute."""


def _parse_xml_with_lines(text: str) -> ET.Element:
    """Parse XML via expat, stamping ``_line`` on every element.

    ``xml.etree``'s C-accelerated parser does not expose the underlying
    expat handle, so we drive expat ourselves and feed a TreeBuilder.
    Only the start handler is Python (it reads the line number); expat
    calls the builder's ``end`` and ``data`` directly.
    """
    builder = ET.TreeBuilder(element_factory=_Elem)
    parser = expat.ParserCreate()
    parser.buffer_text = True

    def start(tag: str, attrs: dict[str, str]) -> None:
        element = builder.start(tag, attrs)
        element._line = parser.CurrentLineNumber  # type: ignore[attr-defined]

    parser.StartElementHandler = start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ParseError(f"malformed XML: {exc}", line=exc.lineno) from exc
    root = builder.close()
    if root is None:  # pragma: no cover - expat errors out first
        raise ParseError("empty document")
    return root


def _line(elem: ET.Element) -> int | None:
    return getattr(elem, "_line", None)


def _fail(elem: ET.Element, message: str) -> ParseError:
    return ParseError(message, line=_line(elem))


def parse_value(text: str) -> Value:
    """Parse an attribute value to int/float/bool, falling back to str.

    Values containing ``${...}`` placeholders are kept as strings so the
    expander can substitute them.
    """
    if "${" in text:
        return text
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _require_attr(elem: ET.Element, name: str) -> str:
    value = elem.get(name)
    if value is None:
        raise _fail(elem, f"<{elem.tag}> is missing required attribute {name!r}")
    return value


def _parse_component(elem: ET.Element) -> ComponentNode:
    name = _require_attr(elem, "name")
    class_name = _require_attr(elem, "class")
    streams: dict[str, str] = {}
    params: dict[str, Value] = {}
    formats: dict[str, str] = {}
    stream_lines: dict[str, int | None] = {}
    reconfigure: str | None = None
    for child in elem:
        if child.tag == "stream":
            port = _require_attr(child, "port")
            ref = _require_attr(child, "ref")
            if port in streams:
                raise _fail(child, f"duplicate stream binding for port {port!r}")
            streams[port] = ref
            stream_lines[port] = _line(child)
            fmt = child.get("format")
            if fmt is not None:
                formats[port] = fmt
        elif child.tag == "param":
            pname = _require_attr(child, "name")
            if pname in params:
                raise _fail(child, f"duplicate param {pname!r}")
            params[pname] = parse_value(_require_attr(child, "value"))
        elif child.tag == "reconfigure":
            if reconfigure is not None:
                raise _fail(child, "multiple <reconfigure> tags in one component")
            reconfigure = _require_attr(child, "request")
        else:
            raise _fail(child, f"unexpected tag <{child.tag}> inside <component>")
    return ComponentNode(
        name=name,
        class_name=class_name,
        streams=streams,
        params=params,
        reconfigure=reconfigure,
        formats=formats,
        line=_line(elem),
        stream_lines=stream_lines,
    )


def _parse_call(elem: ET.Element) -> CallNode:
    procedure = _require_attr(elem, "procedure")
    name = elem.get("name", procedure)
    streams: dict[str, str] = {}
    params: dict[str, Value] = {}
    for child in elem:
        if child.tag == "stream":
            sname = _require_attr(child, "name")
            if sname in streams:
                raise _fail(child, f"duplicate stream argument {sname!r}")
            streams[sname] = _require_attr(child, "ref")
        elif child.tag == "param":
            pname = _require_attr(child, "name")
            if pname in params:
                raise _fail(child, f"duplicate param argument {pname!r}")
            params[pname] = parse_value(_require_attr(child, "value"))
        else:
            raise _fail(child, f"unexpected tag <{child.tag}> inside <call>")
    return CallNode(
        procedure=procedure, name=name, streams=streams, params=params,
        line=_line(elem),
    )


def _parse_parallel(elem: ET.Element) -> ParallelNode:
    shape = elem.get("shape", "task")
    if shape not in PARALLEL_SHAPES:
        raise _fail(
            elem, f"unknown parallel shape {shape!r}; expected one of {PARALLEL_SHAPES}"
        )
    n_raw = elem.get("n")
    n: Value | None = parse_value(n_raw) if n_raw is not None else None
    parblocks: list[tuple[BodyNode, ...]] = []
    for child in elem:
        if child.tag != "parblock":
            raise _fail(child, f"unexpected tag <{child.tag}> inside <parallel>")
        parblocks.append(_parse_body(child))
    if not parblocks:
        raise _fail(elem, "<parallel> needs at least one <parblock>")
    if shape == "slice" and len(parblocks) != 1:
        raise _fail(elem, 'shape="slice" allows exactly one <parblock>')
    if shape in ("slice", "crossdep") and n is None:
        raise _fail(elem, f'shape="{shape}" requires attribute n')
    if shape == "task" and n is not None:
        raise _fail(elem, 'shape="task" does not take attribute n')
    return ParallelNode(
        shape=shape, parblocks=tuple(parblocks), n=n, line=_line(elem)
    )


def _parse_handler(elem: ET.Element) -> EventHandler:
    event = _require_attr(elem, "event")
    action = _require_attr(elem, "action")
    if action not in HANDLER_ACTIONS:
        raise _fail(
            elem, f"unknown handler action {action!r}; expected one of {HANDLER_ACTIONS}"
        )
    option = elem.get("option")
    target = elem.get("target")
    request = elem.get("request")
    if action in ("enable", "disable", "toggle") and option is None:
        raise _fail(elem, f'action="{action}" requires attribute option')
    if action == "forward" and target is None:
        raise _fail(elem, 'action="forward" requires attribute target')
    if action == "reconfigure" and request is None:
        raise _fail(elem, 'action="reconfigure" requires attribute request')
    return EventHandler(
        event=event, action=action, option=option, target=target, request=request,
        line=_line(elem),
    )


def _parse_option(elem: ET.Element) -> OptionNode:
    name = _require_attr(elem, "name")
    enabled_raw = elem.get("enabled", "true").lower()
    if enabled_raw not in ("true", "false"):
        raise _fail(elem, f"enabled must be true/false, got {enabled_raw!r}")
    bypasses: list[Bypass] = []
    body_children: list[ET.Element] = []
    for child in elem:
        if child.tag == "bypass":
            bypasses.append(
                Bypass(
                    src=_require_attr(child, "from"),
                    dst=_require_attr(child, "to"),
                    line=_line(child),
                )
            )
        else:
            body_children.append(child)
    body = tuple(_parse_body_nodes(body_children))
    if not body:
        raise _fail(elem, f"option {name!r} has an empty body")
    return OptionNode(
        name=name,
        body=body,
        enabled=enabled_raw == "true",
        bypasses=tuple(bypasses),
        line=_line(elem),
    )


def _parse_manager(elem: ET.Element) -> ManagerNode:
    name = _require_attr(elem, "name")
    queue = _require_attr(elem, "queue")
    handlers: list[EventHandler] = []
    body: tuple[BodyNode, ...] | None = None
    for child in elem:
        if child.tag == "on":
            handlers.append(_parse_handler(child))
        elif child.tag == "body":
            if body is not None:
                raise _fail(child, "multiple <body> tags inside <manager>")
            body = _parse_body(child)
        else:
            raise _fail(child, f"unexpected tag <{child.tag}> inside <manager>")
    if body is None:
        raise _fail(elem, "<manager> requires a <body>")
    return ManagerNode(
        name=name, queue=queue, handlers=tuple(handlers), body=body,
        line=_line(elem),
    )


_BODY_DISPATCH = {
    "component": _parse_component,
    "call": _parse_call,
    "parallel": _parse_parallel,
    "manager": _parse_manager,
    "option": _parse_option,
}


def _parse_body_nodes(children: list[ET.Element]) -> list[BodyNode]:
    nodes: list[BodyNode] = []
    for child in children:
        handler = _BODY_DISPATCH.get(child.tag)
        if handler is None:
            raise _fail(child, f"unexpected tag <{child.tag}> in a body")
        nodes.append(handler(child))
    return nodes


def _parse_body(elem: ET.Element) -> tuple[BodyNode, ...]:
    return tuple(_parse_body_nodes(list(elem)))


def _parse_procedure(elem: ET.Element) -> Procedure:
    name = _require_attr(elem, "name")
    stream_formals: list[StreamFormal] = []
    param_formals: list[ParamFormal] = []
    body: tuple[BodyNode, ...] | None = None
    for child in elem:
        if child.tag == "params":
            for formal in child:
                if formal.tag == "stream":
                    stream_formals.append(StreamFormal(_require_attr(formal, "name")))
                elif formal.tag == "param":
                    default_raw = formal.get("default")
                    param_formals.append(
                        ParamFormal(
                            _require_attr(formal, "name"),
                            default=parse_value(default_raw)
                            if default_raw is not None
                            else None,
                        )
                    )
                else:
                    raise _fail(formal, f"unexpected tag <{formal.tag}> in <params>")
        elif child.tag == "body":
            if body is not None:
                raise _fail(child, "multiple <body> tags inside <procedure>")
            body = _parse_body(child)
        else:
            raise _fail(child, f"unexpected tag <{child.tag}> inside <procedure>")
    if body is None:
        raise _fail(elem, f"procedure {name!r} has no <body>")
    return Procedure(
        name=name,
        body=body,
        stream_formals=tuple(stream_formals),
        param_formals=tuple(param_formals),
        line=_line(elem),
    )


def parse_string(text: str) -> Spec:
    """Parse XSPCL source text into a :class:`Spec`."""
    root = _parse_xml_with_lines(text)
    if root.tag != "xspcl":
        raise _fail(root, f"root element must be <xspcl>, got <{root.tag}>")
    version = root.get("version", "1.0")
    procedures: dict[str, Procedure] = {}
    for child in root:
        if child.tag != "procedure":
            raise _fail(child, f"unexpected tag <{child.tag}> at top level")
        proc = _parse_procedure(child)
        if proc.name in procedures:
            raise _fail(child, f"duplicate procedure name {proc.name!r}")
        procedures[proc.name] = proc
    return Spec(procedures=procedures, version=version)


def parse_file(path: str | Path) -> Spec:
    """Parse an XSPCL file from disk."""
    return parse_string(Path(path).read_text(encoding="utf-8"))

"""Expansion: validated Spec -> :class:`~repro.core.program.Program`.

Expansion performs, in one recursive walk:

* **procedure inlining** — each ``<call>`` instantiates the callee's body
  with actual stream/param arguments bound to its formals; instance names
  are qualified with the call path (``chain1/scaler``), giving procedural
  abstraction without any runtime cost (paper §3.2);
* **placeholder substitution** — ``${formal}`` in stream refs, param
  values, parallel ``n`` and reconfiguration requests;
* **parameter binding** — each instance's params, once substituted, go
  through its class's :meth:`~repro.core.ports.PortSpec.bind`, so every
  :class:`ComponentInstance` carries typed values with defaults filled;
* **data-parallel replication** — ``slice``/``crossdep`` parblocks are
  copied ``n`` times; copy *i* is told ``(i, n)`` through its
  reconfiguration interface (here: the ``slice`` field of its instance).
  Copies differ in nothing else, so a parblock is substituted and bound
  once, as copy 0, and copies 1..n-1 are clones of it with the id
  ``definition_id[i]`` and ``slice=(i, n)``: a build pays once per
  region, not once per copy;
* **manager/option collection** — managers learn their member components,
  owned options and qualified handler targets, so the runtime can halt
  exactly the managed subgraph.

Stream names are scoped per procedure instantiation: a literal name
``tmp`` inside call ``chain1`` becomes ``chain1/tmp``, while a formal
reference ``${out}`` resolves to the caller's already-qualified name.
Data-parallel copies *share* their streams (whole-frame buffers) and each
processes its assigned region — see :mod:`repro.core.program`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.ast import (
    BodyNode,
    CallNode,
    ComponentNode,
    EventHandler,
    ManagerNode,
    OptionNode,
    ParallelNode,
    Procedure,
    Spec,
    Value,
)
from repro.core.parser import parse_value
from repro.core.ports import PortSpec
from repro.core.program import (
    ComponentInstance,
    IRCrossdep,
    IRLeaf,
    IRManager,
    IRNode,
    IROption,
    IRParallel,
    IRSeries,
    ManagerInfo,
    OptionInfo,
    Program,
)
from repro.core.validator import validate
from repro.errors import ExpansionError

__all__ = ["expand"]

_PLACEHOLDER = re.compile(r"\$\{([^}]*)\}")
_WHOLE_STREAM_REF = re.compile(r"^\$\{([^}]*)\}$")


@dataclass
class _Scope:
    """One procedure instantiation's name bindings."""

    prefix: str  # "" for main, "chain1/" inside call chain1, ...
    params: dict[str, Value]
    streams: dict[str, str]  # formal name -> global stream name


@dataclass
class _Context:
    """Walk state that is not tied to a procedure scope."""

    manager: str | None = None
    options: tuple[str, ...] = ()
    slice: tuple[int, int] | None = None  # (0, n) while expanding copy 0
    region_kind: str | None = None  # 'slice' | 'crossdep' while replicating


class _Expander:
    def __init__(self, spec: Spec, registry: Mapping[str, PortSpec], name: str):
        self.spec = spec
        self.registry = registry
        self.name = name
        self.components: dict[str, ComponentInstance] = {}
        self.managers: dict[str, ManagerInfo] = {}
        self.options: dict[str, OptionInfo] = {}
        # accumulated while inside a manager/option, keyed by qname
        self._member_acc: dict[str, list[str]] = {}
        self._option_acc: dict[str, list[str]] = {}

    # -- substitution helpers -------------------------------------------------

    def _subst_text(self, raw: str, scope: _Scope, what: str) -> str:
        def repl(m: re.Match[str]) -> str:
            key = m.group(1)
            if key in scope.params:
                value = scope.params[key]
                if isinstance(value, bool):
                    return "true" if value else "false"
                return str(value)
            if key in scope.streams:
                return scope.streams[key]
            raise ExpansionError(
                f"{what}: unresolved placeholder ${{{key}}} "
                f"(known formals: {sorted(scope.params) + sorted(scope.streams)})"
            )

        return _PLACEHOLDER.sub(repl, raw)

    def _subst_value(self, raw: Value, scope: _Scope, what: str) -> Value:
        if isinstance(raw, str) and "${" in raw:
            return parse_value(self._subst_text(raw, scope, what))
        return raw

    def _resolve_stream(self, ref: str, scope: _Scope, what: str) -> str:
        whole = _WHOLE_STREAM_REF.match(ref)
        if whole and whole.group(1) in scope.streams:
            return scope.streams[whole.group(1)]
        text = self._subst_text(ref, scope, what) if "${" in ref else ref
        return scope.prefix + text

    def _resolve_n(self, par: ParallelNode, scope: _Scope) -> int:
        assert par.n is not None
        n = self._subst_value(par.n, scope, "parallel n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ExpansionError(f"parallel n must resolve to an integer, got {n!r}")
        if n < 1:
            raise ExpansionError(f"parallel n must be >= 1, got {n}")
        return n

    # -- membership bookkeeping ------------------------------------------------

    def _record_member(self, ctx: _Context, instance_id: str) -> None:
        if ctx.manager is not None:
            self._member_acc.setdefault(ctx.manager, []).append(instance_id)
        for opt in ctx.options:
            self._option_acc.setdefault(opt, []).append(instance_id)

    # -- walk -------------------------------------------------------------------

    def expand_body(
        self, body: tuple[BodyNode, ...], scope: _Scope, ctx: _Context
    ) -> IRNode:
        children = [self.expand_node(node, scope, ctx) for node in body]
        if len(children) == 1:
            return children[0]
        return IRSeries(tuple(children))

    def expand_node(self, node: BodyNode, scope: _Scope, ctx: _Context) -> IRNode:
        if isinstance(node, ComponentNode):
            return self._expand_component(node, scope, ctx)
        if isinstance(node, CallNode):
            return self._expand_call(node, scope, ctx)
        if isinstance(node, ParallelNode):
            return self._expand_parallel(node, scope, ctx)
        if isinstance(node, ManagerNode):
            return self._expand_manager(node, scope, ctx)
        if isinstance(node, OptionNode):
            return self._expand_option(node, scope, ctx)
        raise AssertionError(f"unknown body node {type(node).__name__}")

    def _expand_component(
        self, comp: ComponentNode, scope: _Scope, ctx: _Context
    ) -> IRLeaf:
        definition_id = scope.prefix + comp.name
        instance_id = definition_id if ctx.slice is None else definition_id + "[0]"
        if instance_id in self.components:
            raise ExpansionError(f"duplicate component instance {instance_id!r}")
        what = f"component {instance_id!r}"
        params = {
            k: self._subst_value(v, scope, f"{what} param {k!r}")
            for k, v in comp.params.items()
        }
        ports = self.registry.get(comp.class_name)
        if ports is not None:
            params = ports.bind(instance_id, params)
        streams = {
            port: self._resolve_stream(ref, scope, f"{what} port {port!r}")
            for port, ref in comp.streams.items()
        }
        reconfigure = (
            self._subst_text(comp.reconfigure, scope, f"{what} reconfigure")
            if comp.reconfigure is not None and "${" in comp.reconfigure
            else comp.reconfigure
        )
        port_formats = {
            port: self._subst_text(fmt, scope, f"{what} format {port!r}")
            if "${" in fmt
            else fmt
            for port, fmt in comp.formats.items()
        }
        instance = ComponentInstance(
            instance_id=instance_id,
            definition_id=definition_id,
            class_name=comp.class_name,
            params=params,
            streams=streams,
            slice=ctx.slice,
            reconfigure=reconfigure,
            manager=ctx.manager,
            options=ctx.options,
            port_formats=port_formats,
            line=comp.line,
            port_lines=dict(comp.stream_lines),
        )
        self.components[instance_id] = instance
        self._record_member(ctx, instance_id)
        return IRLeaf(instance)

    def _expand_call(self, call: CallNode, scope: _Scope, ctx: _Context) -> IRNode:
        callee = self.spec.procedures[call.procedure]
        what = f"call {scope.prefix + call.name!r}"
        stream_env = {
            formal: self._resolve_stream(ref, scope, f"{what} stream {formal!r}")
            for formal, ref in call.streams.items()
        }
        param_env: dict[str, Value] = {}
        for formal in callee.param_formals:
            if formal.name in call.params:
                param_env[formal.name] = self._subst_value(
                    call.params[formal.name], scope, f"{what} param {formal.name!r}"
                )
            else:
                assert formal.default is not None  # validator guarantees
                param_env[formal.name] = formal.default
        inner = _Scope(
            prefix=scope.prefix + call.name + "/",
            params=param_env,
            streams=stream_env,
        )
        return self.expand_body(callee.body, inner, ctx)

    def _expand_parallel(
        self, par: ParallelNode, scope: _Scope, ctx: _Context
    ) -> IRNode:
        if par.shape == "task":
            children = tuple(
                self.expand_body(pb, scope, ctx) for pb in par.parblocks
            )
            if len(children) == 1:
                return children[0]
            return IRParallel(children)
        if ctx.region_kind is not None:
            raise ExpansionError(
                f"nested data-parallel regions are not supported "
                f"({par.shape!r} inside {ctx.region_kind!r})"
            )
        n = self._resolve_n(par, scope)
        if par.shape == "slice":
            (pb,) = par.parblocks
            copies = self._replicate(pb, scope, ctx, n, "slice")
            if len(copies) == 1:
                return copies[0]
            return IRParallel(copies)
        assert par.shape == "crossdep"
        return IRCrossdep(tuple(
            self._replicate(pb, scope, ctx, n, "crossdep")
            for pb in par.parblocks
        ))

    def _replicate(
        self, body: tuple[BodyNode, ...], scope: _Scope, ctx: _Context,
        n: int, kind: str,
    ) -> tuple[IRNode, ...]:
        """The ``n`` copies of one replicated parblock.

        Copies differ only in their ids and ``slice``, so the body is
        expanded once, as copy 0, and copies 1..n-1 are relabelled clones
        of it: substitution and binding run once per region, not per copy.
        """
        first = self.expand_body(body, scope, replace(
            ctx, slice=(0, n), region_kind=kind))
        return (first,) + tuple(
            self._clone(first, i, n, ctx) for i in range(1, n)
        )

    def _clone(self, node: IRNode, index: int, n: int, ctx: _Context) -> IRNode:
        # a copy holds only leaves, series and task-parallel blocks
        if type(node) is not IRLeaf:
            return type(node)(tuple(
                self._clone(c, index, n, ctx) for c in node.children
            ))
        inst = node.instance
        instance_id = f"{inst.definition_id}[{index}]"
        if instance_id in self.components:
            raise ExpansionError(f"duplicate component instance {instance_id!r}")
        clone = self.components[instance_id] = inst.relabel(
            instance_id, (index, n))
        self._record_member(ctx, instance_id)
        return IRLeaf(clone)

    def _expand_manager(
        self, mgr: ManagerNode, scope: _Scope, ctx: _Context
    ) -> IRNode:
        if ctx.region_kind is not None:
            raise ExpansionError(
                f"manager {mgr.name!r} may not appear inside a "
                f"{ctx.region_kind!r} region"
            )
        qname = scope.prefix + mgr.name
        if qname in self.managers:
            raise ExpansionError(f"duplicate manager instance {qname!r}")
        self._member_acc.setdefault(qname, [])
        inner_ctx = replace(ctx, manager=qname)
        child = self.expand_body(mgr.body, scope, inner_ctx)
        queue = (
            self._subst_text(mgr.queue, scope, f"manager {qname!r} queue")
            if "${" in mgr.queue
            else mgr.queue
        )
        handlers = tuple(
            self._qualify_handler(h, scope, qname) for h in mgr.handlers
        )
        owned = tuple(
            opt for opt, info in self.options.items() if info.manager == qname
        )
        self.managers[qname] = ManagerInfo(
            qname=qname,
            queue=queue,
            handlers=handlers,
            options=owned,
            members=tuple(self._member_acc[qname]),
            enter_id=f"{qname}.enter",
            exit_id=f"{qname}.exit",
        )
        return IRManager(qname=qname, child=child)

    def _qualify_handler(
        self, handler: EventHandler, scope: _Scope, manager_qname: str
    ) -> EventHandler:
        option = scope.prefix + handler.option if handler.option else None
        target = handler.target
        if target is not None and "${" in target:
            target = self._subst_text(target, scope, "handler forward target")
        request = handler.request
        if request is not None and "${" in request:
            request = self._subst_text(request, scope, "handler request")
        return EventHandler(
            event=handler.event,
            action=handler.action,
            option=option,
            target=target,
            request=request,
            line=handler.line,
        )

    def _expand_option(
        self, opt: OptionNode, scope: _Scope, ctx: _Context
    ) -> IRNode:
        if ctx.manager is None:
            raise ExpansionError(
                f"option {opt.name!r} is not inside a manager"
            )
        if ctx.region_kind is not None:
            raise ExpansionError(
                f"option {opt.name!r} may not appear inside a "
                f"{ctx.region_kind!r} region"
            )
        qname = scope.prefix + opt.name
        if qname in self.options:
            raise ExpansionError(f"duplicate option instance {qname!r}")
        self._option_acc.setdefault(qname, [])
        inner_ctx = replace(ctx, options=ctx.options + (qname,))
        child = self.expand_body(opt.body, scope, inner_ctx)
        bypasses = tuple(
            (
                self._resolve_stream(bp.src, scope, f"option {qname!r} bypass"),
                self._resolve_stream(bp.dst, scope, f"option {qname!r} bypass"),
            )
            for bp in opt.bypasses
        )
        self.options[qname] = OptionInfo(
            qname=qname,
            manager=ctx.manager,
            default_enabled=opt.enabled,
            bypasses=bypasses,
            members=tuple(self._option_acc[qname]),
        )
        return IROption(qname=qname, child=child)

    def run(self) -> Program:
        scope = _Scope(prefix="", params={}, streams={})
        root = self.expand_body(self.spec.main.body, scope, _Context())
        return Program(
            name=self.name,
            root=root,
            components=self.components,
            managers=self.managers,
            options=self.options,
            registry=self.registry,
        )


def expand(
    spec: Spec,
    registry: Mapping[str, PortSpec],
    *,
    name: str = "app",
    validated: bool = False,
) -> Program:
    """Expand a specification into a :class:`Program`.

    Runs :func:`~repro.core.validator.validate` first (against the same
    registry) unless ``validated=True``.
    """
    if not validated:
        validate(spec, registry=registry)
    return _Expander(spec, registry, name).run()

"""Port and init-parameter declarations for component classes.

A component has "a fixed number of i/o ports to which streams can be
connected" (paper §2.3a) and a set of initialization parameters (§3.4).
The XSPCL text binds *port names* to *stream names* without stating
direction — direction is a property of the component class, declared
here and registered in the component registry.  The validator and the
program builder consult these declarations to orient stream edges and to
reject malformed bindings.

Each parameter's type, domain and default is declared once, as a
:class:`Param`; :meth:`PortSpec.bind` is the one place a value is checked
and coerced (literal values at validation, every instance at expansion,
``key=value`` reconfiguration requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, Mapping

from repro.core.formats import parse_format
from repro.errors import ComponentError, ParamError

__all__ = ["Param", "PortSpec"]

_INF = float("inf")
_KIND_TEXT = {
    "int": "an integer", "float": "a finite number", "enum": "",
    "str": "a non-empty string", "bool": "true or false",
    "pos": "a row,col pair of integers",
}


@dataclass(frozen=True, eq=False)
class Param:
    """Type, domain and default of one init parameter.

    ``kind`` is one of:

    * ``int`` — an integer in ``[lo, hi]`` (either bound optional); an
      integral float (``4.0``, ``1e3``) binds as that integer, while
      ``2.5`` and ``true`` are rejected;
    * ``float`` — a finite number in ``[lo, hi]``;
    * ``str`` — a non-empty string (a number binds as its text);
    * ``bool`` — ``true`` or ``false``;
    * ``enum`` — one of ``choices`` (any container, so a live registry
      such as the skeleton kernels works);
    * ``pos`` — a ``row,col`` pair of integers, bound as a tuple.

    A ``required`` parameter must be given.  An absent optional one binds
    to ``default``, or stays absent without one: what a parameter a port
    format names needs (absent a solver variable, present a constant).
    """

    kind: str
    required: bool = False
    default: Any = None
    lo: float | None = None
    hi: float | None = None
    choices: Container[str] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KIND_TEXT:
            raise ComponentError(f"unknown param kind {self.kind!r}")

    def coerce(self, value: Any) -> Any:
        """``value`` as this parameter's type; ``ValueError`` if it is not."""
        kind = self.kind
        cls = value.__class__
        if kind == "int":
            if cls is float and value.is_integer():
                value, cls = int(value), int
            ok = cls is int
        elif kind == "float":
            if cls is int:
                value, cls = float(value), float
            ok = cls is float and -_INF < value < _INF
        elif kind == "str":
            if cls is int or cls is float:
                value, cls = str(value), str
            ok = cls is str and value != ""
        elif kind == "enum":
            ok = cls is str and value in self.choices
        elif kind == "bool":
            ok = cls is bool
        else:  # pos
            if cls is str:
                row, _, col = value.partition(",")
                value = int(row), int(col)
            ok = (value.__class__ is tuple and len(value) == 2
                  and value[0].__class__ is int
                  and value[1].__class__ is int)
        if not ok or (self.lo is not None and value < self.lo) or (
                self.hi is not None and value > self.hi):
            raise ValueError
        return value

    def expected(self) -> str:
        """The type and domain, for error messages."""
        if self.kind == "enum":
            return f"one of {sorted(self.choices)}"
        text, lo, hi = _KIND_TEXT[self.kind], self.lo, self.hi
        if lo is not None and hi is not None:
            return f"{text} in {lo}..{hi}"
        if lo is not None or hi is not None:
            return f"{text} >= {lo}" if hi is None else f"{text} <= {hi}"
        return text


@dataclass(frozen=True)
class PortSpec:
    """Declared ports and init parameters of a component class.

    ``params`` maps each parameter name to its :class:`Param`.  With
    ``open_params=True`` undeclared names pass through unchecked (the
    skeletons forward them to their kernel).

    ``formats`` maps port names to format declarations (see
    :mod:`repro.core.formats` for the grammar).  Ports without an entry
    draw an X505 info from the format solver; a ``put`` on their stream
    sets its format by first-write inference.

    ``buffers`` names the outputs whose frame the class allocates with
    ``job.buffer(port)``.  That buffer is its stream's solved plane
    format, so the format solver reports X507, and every build refuses
    the program, where such a port's stream has none.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    params: dict[str, Param] = field(default_factory=dict)
    open_params: bool = False
    formats: dict[str, str] = field(default_factory=dict)
    buffers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise ComponentError(
                f"ports cannot be both input and output: {sorted(overlap)}"
            )
        for port, decl in self.formats.items():
            if port not in self.inputs and port not in self.outputs:
                raise ComponentError(
                    f"format declared for unknown port {port!r}"
                )
            parse_format(decl)  # raises FormatError on a bad declaration
        for port in self.buffers:
            if port not in self.outputs:
                raise ComponentError(
                    f"buffer declared for unknown output {port!r}"
                )

    @property
    def all_ports(self) -> tuple[str, ...]:
        return self.inputs + self.outputs

    def is_input(self, port: str) -> bool:
        return port in self.inputs

    def is_output(self, port: str) -> bool:
        return port in self.outputs

    def bind(self, instance_id: str, raw: Mapping[str, Any]) -> dict[str, Any]:
        """Check and coerce the init params ``raw`` of ``instance_id``.

        Returns the typed params: each declared value coerced by its
        :class:`Param`, each absent optional one at its default.  A string
        still holding a ``${...}`` placeholder is kept as it is; the
        expander binds it after substitution.

        Raises :class:`ComponentError` for a missing required or an
        undeclared name, and :class:`ParamError` (naming the instance, the
        parameter, the value and the expected domain) for a bad value.
        """
        declared = self.params
        bound: dict[str, Any] = {}
        given = 0
        for name, param in declared.items():
            if name in raw:
                given += 1
                value = raw[name]
                if value.__class__ is str and "${" in value:
                    bound[name] = value
                    continue
                try:
                    bound[name] = param.coerce(value)
                except ValueError:
                    raise ParamError(
                        f"component {instance_id!r}: param {name!r} must be "
                        f"{param.expected()}, got {value!r}"
                    ) from None
            elif param.required:
                missing = sorted(
                    n for n, p in declared.items()
                    if p.required and n not in raw
                )
                raise ComponentError(
                    f"component {instance_id!r} missing required params "
                    f"{missing}"
                )
            elif param.default is not None:
                bound[name] = param.default
        if given < len(raw):  # undeclared names
            if not self.open_params:
                raise ComponentError(
                    f"component {instance_id!r} got unknown params "
                    f"{sorted(set(raw) - set(declared))}"
                )
            for name, value in raw.items():
                if name not in declared:
                    bound[name] = value
        return bound

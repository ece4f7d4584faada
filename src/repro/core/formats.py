"""Port format terms: grammar, instantiation, and unification.

A *format term* declares what travels on a stream per iteration: the
value kind (pixel plane, DCT coefficient field, compressed bitstream, or
scalar), the dtype, the plane shape with symbolic dimensions, an optional
colorspace tag, and the slice-divisibility block of a data-parallel
writer.  Terms are written as whitespace-separated ``key=value`` tokens::

    kind=plane dtype=uint8 shape=height,width colorspace=y block=8

Shape dimensions may be integers, init-parameter names (resolved per
instance), scaled names (``height/2``, ``width*3``), explicit unification
variables (``?h``), or ``*`` wildcards.  Names that do not resolve to an
instance parameter become unification variables scoped to the component
*definition* — all data-parallel copies of one textual component share
them, and a component class reusing a variable across two ports (e.g.
``dtype=?T`` on input and output) declares the ports equal in that
property.

The solver in :mod:`repro.analysis.formats` unifies instantiated terms
across every stream of the expanded graph (ROADMAP item 4: interface
reconciliation a la Zaichenkov et al., realized as a unification/fixpoint
pass without a SAT backend).  This module holds everything the solver
and the validator share: parsing (with precise error messages for X119),
per-instance instantiation, and the weighted union-find over dimension
and tag terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.errors import ComponentError

__all__ = [
    "FormatError",
    "FormatDecl",
    "DimExpr",
    "Term",
    "Unifier",
    "UnifyConflict",
    "parse_format",
    "KINDS",
]

#: Valid ``kind=`` values.  ``plane`` is an ndarray the runtime allocates
#: via ``ensure_buffer``; the other kinds travel as opaque objects.
KINDS = ("plane", "coeffs", "bitstream", "scalar")

_NAME = re.compile(r"^[A-Za-z_]\w*$")
_DIM = re.compile(r"^(?P<base>\?[A-Za-z_]\w*|[A-Za-z_]\w*|\d+|\*)"
                  r"(?:(?P<op>[*/])(?P<k>\d+|[A-Za-z_]\w*))?$")


class FormatError(ComponentError):
    """A format declaration failed to parse or resolve."""


# ---------------------------------------------------------------------------
# Declared (pre-instantiation) terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimExpr:
    """One declared shape dimension: ``base * scale``.

    ``base`` is ``("const", int)``, ``("name", str)`` (a parameter name or
    definition-scoped variable), ``("var", str)`` (explicit ``?v``), or
    ``("any", "")`` for ``*``.  ``scale`` is the literal scale as an
    integer ratio ``(numerator, denominator)``: ``height/2`` is ``(1, 2)``.
    ``scale_param`` is an ``(op, name)`` pair for scales written with a
    parameter name (``height/factor``), resolved per instance.
    """

    base: tuple[str, str | int]
    scale: tuple[int, int] = (1, 1)
    scale_param: tuple[str, str] | None = None

    def render(self) -> str:
        tag, val = self.base
        if tag == "any":
            text = "*"
        elif tag == "var":
            text = f"?{val}"
        else:
            text = str(val)
        if self.scale_param is not None:
            op, pname = self.scale_param
            return f"{text}{op}{pname}"
        num, den = self.scale
        if num != 1:
            text += f"*{num}"
        if den != 1:
            text += f"/{den}"
        return text


@dataclass(frozen=True)
class FormatDecl:
    """A parsed (but not yet instantiated) port format declaration."""

    kind: str | None = None  # None = unconstrained
    dtype: str | None = None  # raw token: dtype name, param name, ?var
    dims: tuple[DimExpr, ...] | None = None
    colorspace: str | None = None  # raw token: tag, ?var; None = any
    block: int | None = None
    source: str = field(default="", compare=False)

    def instantiate(self, params: Mapping[str, object], scope: str) -> "Term":
        """Resolve parameter names against ``params`` for one instance.

        Unresolved names become variables named ``{scope}.{name}`` so all
        slice copies of a definition (same ``scope``) share them.
        """
        dims: tuple[tuple[str, object], ...] | None = None
        if self.dims is not None:
            resolved = []
            for d in self.dims:
                num, den = d.scale
                if d.scale_param is not None:
                    op, pname = d.scale_param
                    p = params.get(pname)
                    if isinstance(p, bool) or not isinstance(p, int) or p <= 0:
                        raise FormatError(
                            f"dimension {d.render()!r}: scale parameter "
                            f"{pname!r} does not resolve to a positive integer"
                        )
                    if op == "/":
                        den *= p
                    else:
                        num *= p
                tag, val = d.base
                if tag == "name":
                    p = params.get(val)
                    if isinstance(p, bool) or not isinstance(p, int):
                        p = None
                    if p is not None:
                        tag, val = "const", p
                    else:
                        tag, val = "var", f"{scope}.{val}"
                elif tag == "var":
                    val = f"{scope}.?{val}"
                if tag == "const":
                    out, rest = divmod(val * num, den)
                    if rest or out < 0:
                        raise FormatError(
                            f"dimension {d.render()!r} resolves to the "
                            f"non-integral value {val}*{Fraction(num, den)}"
                        )
                    resolved.append(("const", out))
                elif tag == "var":
                    resolved.append(("var", (val, Fraction(num, den))))
                else:
                    resolved.append(("any", None))
            dims = tuple(resolved)
        return Term(
            kind=self.kind,
            dtype=_resolve_tag(self.dtype, params, scope, dtype=True),
            dims=dims,
            colorspace=_resolve_tag(self.colorspace, params, scope, dtype=False),
            block=self.block,
        )


def _coerce_dtype(value: object) -> str:
    try:
        return np.dtype(str(value)).name
    except TypeError as exc:
        raise FormatError(f"invalid dtype {value!r}") from exc


@lru_cache(maxsize=None)
def _dtype_name(token: str) -> str | None:
    """numpy's name for the dtype ``token`` spells, None if it spells none."""
    try:
        return np.dtype(token).name
    except TypeError:
        return None


def _resolve_tag(token, params, scope, *, dtype: bool):
    """Resolve a dtype/colorspace token to a :class:`Term` tag entry."""
    if token is None:
        return None
    if token.startswith("?"):
        return ("var", f"{scope}.{token}")
    if not dtype:
        return ("val", token)
    name = _dtype_name(token)
    if name is not None:
        return ("val", name)
    if token in params:
        return ("val", _coerce_dtype(params[token]))
    return ("var", f"{scope}.{token}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_dim(token: str) -> DimExpr:
    m = _DIM.match(token)
    if m is None:
        raise FormatError(
            f"bad shape dimension {token!r}: expected an integer, a "
            "parameter name, name/k, name*k, ?var, or *"
        )
    base_raw = m.group("base")
    scale = (1, 1)
    scale_param: tuple[str, str] | None = None
    if m.group("op"):
        k_raw = m.group("k")
        if k_raw.isdigit():
            k = int(k_raw)
            if k == 0:
                raise FormatError(f"bad shape dimension {token!r}: scale 0")
            scale = (1, k) if m.group("op") == "/" else (k, 1)
        else:
            scale_param = (m.group("op"), k_raw)
    if base_raw == "*":
        if scale != (1, 1) or scale_param is not None:
            raise FormatError(f"bad shape dimension {token!r}: cannot scale *")
        return DimExpr(("any", ""))
    if base_raw.startswith("?"):
        return DimExpr(("var", base_raw[1:]), scale, scale_param)
    if base_raw.isdigit():
        return DimExpr(("const", int(base_raw)), scale, scale_param)
    return DimExpr(("name", base_raw), scale, scale_param)


@lru_cache(maxsize=None)
def parse_format(text: str) -> FormatDecl:
    """Parse a format declaration string.

    Raises :class:`FormatError` with a message precise enough to ship in
    an X119 diagnostic.
    """
    kind: str | None = None
    dtype: str | None = None
    dims: tuple[DimExpr, ...] | None = None
    colorspace: str | None = None
    block: int | None = None
    seen: set[str] = set()
    tokens = text.split()
    if not tokens:
        raise FormatError("empty format declaration")
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise FormatError(
                f"bad format token {token!r}: expected key=value"
            )
        if key in seen:
            raise FormatError(f"duplicate format key {key!r}")
        seen.add(key)
        if key == "kind":
            if value != "*" and value not in KINDS:
                raise FormatError(
                    f"unknown kind {value!r}: expected one of {KINDS}"
                )
            kind = None if value == "*" else value
        elif key == "dtype":
            if value != "*":
                _check_dtype_token(value)
                dtype = value
        elif key == "shape":
            if value == "":
                raise FormatError(f"bad shape {value!r}: no dimensions")
            dims = tuple(_parse_dim(d) for d in value.split(","))
        elif key == "colorspace":
            if value != "*":
                _check_tag_token(value, "colorspace")
                colorspace = value
        elif key == "block":
            if not value.isdigit() or int(value) < 1:
                raise FormatError(
                    f"bad block {value!r}: expected a positive integer"
                )
            block = int(value)
        else:
            raise FormatError(
                f"unknown format key {key!r}: expected kind, dtype, shape, "
                "colorspace, or block"
            )
    return FormatDecl(
        kind=kind, dtype=dtype, dims=dims, colorspace=colorspace, block=block,
        source=text,
    )


def _check_dtype_token(value: str) -> None:
    if value.startswith("?"):
        _check_tag_token(value, "dtype")
        return
    if _dtype_name(value) is None and not _NAME.match(value):
        raise FormatError(
            f"bad dtype {value!r}: expected a numpy dtype, a parameter "
            "name, ?var, or *"
        )


def _check_tag_token(value: str, what: str) -> None:
    name = value[1:] if value.startswith("?") else value
    if not _NAME.match(name):
        raise FormatError(f"bad {what} {value!r}")


# ---------------------------------------------------------------------------
# Instantiated terms and unification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A format term instantiated for one component instance.

    ``dims`` entries are ``("const", int)``, ``("var", (name, Fraction))``
    (value = var * fraction), or ``("any", None)``.  ``dtype`` and
    ``colorspace`` are ``("val", str)`` or ``("var", name)`` or None.
    """

    kind: str | None = None
    dtype: tuple[str, object] | None = None
    dims: tuple[tuple[str, object], ...] | None = None
    colorspace: tuple[str, object] | None = None
    block: int | None = None


@dataclass(frozen=True)
class UnifyConflict:
    """A failed unification step.

    ``prop`` is ``kind`` / ``dtype`` / ``shape`` / ``colorspace`` /
    ``rank``; ``symbolic`` is True when the failure involves symbolic
    reasoning (non-integral or inconsistent variable solution — X502
    territory) rather than two concrete values disagreeing (X501).
    """

    prop: str
    ours: str
    theirs: str
    symbolic: bool = False


class Unifier:
    """Weighted union-find over dimension variables plus tag variables.

    Dimension variables relate by rational ratios: merging ``H`` with
    ``H2*2`` records ``H = 2*H2`` and propagates any concrete binding
    through the ratio.  Tag variables (dtype, colorspace) unify by
    equality.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._weight: dict[str, Fraction] = {}  # value(x) = w[x] * value(parent)
        self._bound: dict[str, int] = {}
        self._tag_parent: dict[str, str] = {}
        self._tag_bound: dict[str, str] = {}

    # -- dimensions --------------------------------------------------------

    def _ratio_to_root(self, x: str) -> tuple[str, Fraction]:
        """value(x) = ratio * value(root)."""
        root = x
        ratio = Fraction(1)
        while self._parent.setdefault(root, root) != root:
            self._weight.setdefault(root, Fraction(1))
            ratio *= self._weight[root]
            root = self._parent[root]
        self._weight.setdefault(root, Fraction(1))
        return root, ratio

    def unify_dim(
        self, a: tuple[str, object], b: tuple[str, object]
    ) -> UnifyConflict | None:
        """Unify two dim entries; returns a conflict or None."""
        if a[0] == "any" or b[0] == "any":
            return None
        if a[0] == "const" and b[0] == "const":
            if a[1] != b[1]:
                return UnifyConflict("shape", str(a[1]), str(b[1]))
            return None
        if a[0] == "const":
            a, b = b, a
        # a is ("var", (name, frac)); value = var * frac
        name, frac = a[1]
        root, ratio = self._ratio_to_root(name)
        if b[0] == "const":
            target = Fraction(int(b[1])) / (frac * ratio)
            if target.denominator != 1 or target < 0:
                return UnifyConflict(
                    "shape", f"{name} = {b[1]}/{frac * ratio}", str(b[1]),
                    symbolic=True,
                )
            if root in self._bound:
                if self._bound[root] != target.numerator:
                    return UnifyConflict(
                        "shape",
                        str(self._bound[root] * ratio * frac),
                        str(b[1]),
                    )
                return None
            self._bound[root] = target.numerator
            return None
        b_name, b_frac = b[1]
        b_root, b_ratio = self._ratio_to_root(b_name)
        if root == b_root:
            if frac * ratio != b_frac * b_ratio:
                return UnifyConflict(
                    "shape", f"{name}*{frac}", f"{b_name}*{b_frac}",
                    symbolic=True,
                )
            return None
        # value(root) * ratio * frac == value(b_root) * b_ratio * b_frac
        # attach b_root under root:
        w = (ratio * frac) / (b_ratio * b_frac)
        self._parent[b_root] = root
        self._weight[b_root] = Fraction(1) / w
        if b_root in self._bound:
            bound = self._bound.pop(b_root)
            implied = Fraction(bound) / w
            if implied.denominator != 1 or implied < 0:
                return UnifyConflict(
                    "shape", f"{name}", f"{b_name}={bound}", symbolic=True
                )
            if root in self._bound and self._bound[root] != implied.numerator:
                return UnifyConflict(
                    "shape", str(self._bound[root]), str(implied.numerator)
                )
            self._bound[root] = implied.numerator
        return None

    def resolve_dim(self, entry: tuple[str, object]) -> int | None:
        """Concrete value of a dim entry after unification, if known."""
        if entry[0] == "const":
            return int(entry[1])  # type: ignore[arg-type]
        if entry[0] != "var":
            return None
        name, frac = entry[1]  # type: ignore[misc]
        root, ratio = self._ratio_to_root(name)
        if root not in self._bound:
            return None
        value = Fraction(self._bound[root]) * ratio * frac
        return int(value) if value.denominator == 1 else None

    # -- tags (dtype / colorspace) ----------------------------------------

    def _tag_find(self, x: str) -> str:
        root = x
        while self._tag_parent.setdefault(root, root) != root:
            root = self._tag_parent[root]
        while self._tag_parent[x] != root:
            self._tag_parent[x], x = root, self._tag_parent[x]
        return root

    def unify_tag(
        self, prop: str, a: tuple[str, object], b: tuple[str, object]
    ) -> UnifyConflict | None:
        if a[0] == "val" and b[0] == "val":
            if a[1] != b[1]:
                return UnifyConflict(prop, str(a[1]), str(b[1]))
            return None
        if a[0] == "val":
            a, b = b, a
        root = self._tag_find(str(a[1]))
        if b[0] == "val":
            value = str(b[1])
            if root in self._tag_bound:
                if self._tag_bound[root] != value:
                    return UnifyConflict(prop, self._tag_bound[root], value)
                return None
            self._tag_bound[root] = value
            return None
        b_root = self._tag_find(str(b[1]))
        if root == b_root:
            return None
        self._tag_parent[b_root] = root
        if b_root in self._tag_bound:
            value = self._tag_bound.pop(b_root)
            if root in self._tag_bound and self._tag_bound[root] != value:
                return UnifyConflict(prop, self._tag_bound[root], value)
            self._tag_bound[root] = value
        return None

    def resolve_tag(self, entry: tuple[str, object] | None) -> str | None:
        if entry is None:
            return None
        if entry[0] == "val":
            return str(entry[1])
        root = self._tag_find(str(entry[1]))
        return self._tag_bound.get(root)

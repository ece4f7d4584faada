"""Diagnostic framework for whole-program XSPCL static analysis.

The paper's XSPCL tool *validates* a specification and stops at the first
error.  ``xspcl lint`` goes further: it runs a battery of analysis passes
over the AST and the expanded program and reports **every** finding in one
run, each tagged with

* a stable **code** (``X1xx`` validation, ``X2xx`` liveness/dead-flow,
  ``X3xx`` concurrency/safety, ``X4xx`` performance lint, ``X5xx``
  interface/format reconciliation),
* a **severity** (info < warning < error),
* and, where the spec came from XML, the **source line** of the
  offending element.

This module is deliberately standalone (no imports from :mod:`repro.core`)
so the validator can be built on top of it without import cycles.  The
catalogue of codes lives in :data:`CODES`; ``docs/lint.md`` documents each
code with a minimal triggering example and is kept in sync by
``tests/analysis/test_codes_documented.py``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "CodeInfo",
    "CODES",
    "Diagnostic",
    "DiagnosticBag",
    "render_text",
    "render_json",
]


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}") from None

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Catalogue entry for one diagnostic code."""

    code: str
    severity: Severity
    family: str  # validation | liveness | concurrency | performance | formats
    title: str


def _catalogue(*entries: tuple[str, Severity, str, str]) -> dict[str, CodeInfo]:
    out: dict[str, CodeInfo] = {}
    for code, severity, family, title in entries:
        if code in out:
            raise ValueError(f"duplicate diagnostic code {code}")
        out[code] = CodeInfo(code, severity, family, title)
    return out


_E, _W, _I = Severity.ERROR, Severity.WARNING, Severity.INFO

#: Every diagnostic code the toolchain can emit.  Codes are stable: once
#: shipped they are never renumbered, only retired.
CODES: dict[str, CodeInfo] = _catalogue(
    # -- X0xx: front-end --------------------------------------------------
    ("X001", _E, "validation", "malformed XML / parse error"),
    # -- X1xx: semantic validation (the paper's XSPCL checks) -------------
    ("X101", _E, "validation", "no procedure named 'main'"),
    ("X102", _E, "validation", "'main' declares formal parameters"),
    ("X103", _E, "validation", "call targets an unknown procedure"),
    ("X104", _E, "validation", "recursive procedure calls"),
    ("X105", _E, "validation", "call stream arguments mismatch the callee"),
    ("X106", _E, "validation", "call init-parameter arguments mismatch"),
    ("X107", _E, "validation", "duplicate instance name in a procedure"),
    ("X108", _E, "validation", "bad ${...} placeholder"),
    ("X109", _E, "validation", "option not contained in any manager"),
    ("X110", _E, "validation", "duplicate option name in a manager"),
    ("X111", _E, "validation", "handler references an unknown option"),
    ("X112", _E, "validation", "invalid parallel replication count n"),
    ("X113", _E, "validation", "empty <parblock>"),
    ("X114", _E, "validation", "unknown component class"),
    ("X115", _E, "validation", "stream bindings mismatch the class ports"),
    ("X116", _E, "validation", "init params violate the class schema"),
    ("X117", _E, "validation", "param default must be a literal"),
    ("X118", _E, "validation", "expansion failed"),
    ("X119", _E, "validation", "malformed port format declaration"),
    ("X120", _E, "validation", "init param has the wrong type or is out of range"),
    ("X121", _E, "validation", "reconfigure request sets a data-parallel copy's slice"),
    # -- X2xx: liveness / dead flow ---------------------------------------
    ("X201", _W, "liveness", "procedure unreachable from 'main'"),
    ("X202", _W, "liveness", "unused stream formal"),
    ("X203", _W, "liveness", "unused init-parameter formal"),
    ("X204", _W, "liveness", "stream is written but never read"),
    ("X205", _E, "liveness", "stream is read but never written"),
    ("X206", _W, "liveness", "option no handler can toggle"),
    # -- X3xx: concurrency / reconfiguration safety -----------------------
    ("X301", _E, "concurrency", "cyclic stream dependencies (pipeline deadlock)"),
    ("X302", _E, "concurrency", "stream has multiple logical writers"),
    ("X303", _E, "concurrency", "stream reader not ordered after its writer"),
    ("X304", _W, "concurrency", "non-series-parallel region (prediction accuracy)"),
    ("X305", _W, "concurrency", "manager queue has no sender"),
    ("X306", _W, "concurrency", "forwarded event targets a queue no manager polls"),
    ("X307", _E, "concurrency", "reconfigured option state fails to splice"),
    # -- X4xx: performance lint -------------------------------------------
    ("X401", _I, "performance", "linear chain eligible for grouping fusion"),
    ("X402", _W, "performance", "slice count does not divide the frame height"),
    ("X403", _I, "performance", "component class has no cost profile"),
    ("X404", _W, "performance", "slice replication exceeds the machine node count"),
    ("X405", _W, "performance", "forward handlers cycle an event between queues"),
    # -- X5xx: interface reconciliation (format solving) -------------------
    ("X501", _E, "formats", "producer/consumer format mismatch"),
    ("X502", _E, "formats", "unsolvable symbolic dimension"),
    ("X503", _E, "formats", "slice block does not divide a declared dimension"),
    ("X504", _W, "formats", "lossy format mismatch, auto-convertible"),
    ("X505", _I, "formats", "undeclared port format, falling back to inference"),
    ("X506", _I, "formats", "convert_plane auto-inserted at an X504 site"),
)

FAMILIES: tuple[str, ...] = (
    "validation", "liveness", "concurrency", "performance", "formats",
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a message, and a source location."""

    code: str
    severity: Severity
    message: str
    line: int | None = None
    where: str | None = None  # e.g. "procedure 'main'" or an instance id
    path: str | None = None  # source file, filled in by the CLI

    @property
    def family(self) -> str:
        return CODES[self.code].family

    def format(self) -> str:
        loc = self.path or "<spec>"
        if self.line is not None:
            loc += f":{self.line}"
        ctx = f" ({self.where})" if self.where else ""
        return f"{loc}: {self.severity}: [{self.code}] {self.message}{ctx}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "family": self.family,
            "message": self.message,
            "line": self.line,
            "where": self.where,
            "path": self.path,
        }


@dataclass
class DiagnosticBag:
    """Collect-all-don't-stop container used by the validator and passes."""

    items: list[Diagnostic] = field(default_factory=list)

    def report(
        self,
        code: str,
        message: str,
        *,
        line: int | None = None,
        where: str | None = None,
        severity: Severity | None = None,
    ) -> Diagnostic:
        info = CODES.get(code)
        if info is None:
            raise KeyError(f"unknown diagnostic code {code!r}")
        diag = Diagnostic(
            code=code,
            severity=severity if severity is not None else info.severity,
            message=message,
            line=line,
            where=where,
        )
        self.items.append(diag)
        return diag

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.items.extend(diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.items if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.items if d.severity == Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self.items)

    def at_or_above(self, threshold: Severity) -> list[Diagnostic]:
        return [d for d in self.items if d.severity >= threshold]

    def sorted(self) -> list[Diagnostic]:
        """Deduplicated, ordered by (path, line, code, message)."""
        seen: set[tuple] = set()
        unique: list[Diagnostic] = []
        for d in self.items:
            key = (d.code, d.line, d.where, d.message)
            if key not in seen:
                seen.add(key)
                unique.append(d)
        return sort_diagnostics(unique)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(
        diags,
        key=lambda d: (
            d.path or "",
            d.line if d.line is not None else 1 << 30,
            d.code,
            d.message,
        ),
    )


def render_text(diagnostics: list[Diagnostic]) -> str:
    """Human-readable report, one line per diagnostic plus a summary."""
    lines = [d.format() for d in diagnostics]
    n_err = sum(1 for d in diagnostics if d.severity >= Severity.ERROR)
    n_warn = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
    n_info = len(diagnostics) - n_err - n_warn
    lines.append(
        f"{n_err} error(s), {n_warn} warning(s), {n_info} info"
        if diagnostics
        else "clean: no diagnostics"
    )
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic], *, formats: object = None) -> str:
    """Machine-readable report (stable schema, used by --format json).

    ``formats``, when given (``--show-formats``), is appended verbatim as
    a ``"formats"`` key: the per-configuration solved format tables.
    """
    payload: dict = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": {
            "errors": sum(1 for d in diagnostics if d.severity >= Severity.ERROR),
            "warnings": sum(
                1 for d in diagnostics if d.severity == Severity.WARNING
            ),
            "infos": sum(1 for d in diagnostics if d.severity == Severity.INFO),
            "total": len(diagnostics),
        },
    }
    if formats is not None:
        payload["formats"] = formats
    return json.dumps(payload, indent=2)

"""Spec-build work per data-parallel copy: a deterministic guard.

The repo benchmark's ``setup_s`` times parse + expand + runtime
construction.  Every real executor runs one copy per data-parallel region
(:func:`repro.core.program.one_copy_regions`), so the per-region work of
a build (placeholder substitution, param binding, format instantiation)
must be paid once per region: the expander clones copies 1..n-1 from
copy 0 and the cut drops them in one pass.  This counts ``call`` and
``c_call`` profile events of ``expand`` plus ``one_copy_regions`` on PiP
at two slice counts, so a build that goes back to paying per copy fails
tier-1 instead of surfacing as a ``setup_s`` delta.
"""

from __future__ import annotations

import sys

from repro.apps import build_pip
from repro.components.registry import default_ports, default_registry
from repro.core import expand
from repro.core.formats import parse_format
from repro.core.program import one_copy_regions

#: profile events per instance that a larger slice count adds.  Measured
#: 13.0 on CPython 3.11 (98.0 while every copy was substituted and bound
#: on its own and the cut re-walked each copy with ``iter_ir``); the
#: head-room covers what 3.10 and 3.12 count differently, not a per-copy
#: substitution or bind.
BUDGET_PER_COPY = 25

PORTS = default_ports()
REGISTRY = default_registry()


def _events(fn) -> int:
    count = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0]


def _build_events(slices: int) -> tuple[int, int]:
    """(profile events of expand + cut, instances expanded) for PiP."""
    spec = build_pip(1, width=720, height=576, factor=4, slices=slices)
    built = []

    def build():
        program = expand(spec, PORTS, name="pip")
        one_copy_regions(program, lambda name: REGISTRY[name].row_contract)
        built.append(program)

    build()  # warm-up: parse_format's cache, numpy's lazy set-up
    built.clear()
    return _events(build), len(built[0].components)


def test_an_added_copy_costs_a_clone_not_a_build():
    few, few_instances = _build_events(2)
    many, many_instances = _build_events(16)
    # PiP slices its downscale and blend per source: 14 copies per added slice
    assert many_instances - few_instances == 84
    per_copy = (many - few) / (many_instances - few_instances)
    assert per_copy <= BUDGET_PER_COPY, (
        f"{per_copy:.1f} profile events per added copy (budget "
        f"{BUDGET_PER_COPY}): {few} events at 2 slices, {many} at 16"
    )


def test_a_constant_dimension_builds_no_fraction():
    """Every PiP format resolves to integers without entering ``fractions``."""
    program = expand(build_pip(1, width=720, height=576, factor=4, slices=8),
                     PORTS)
    pairs = [
        (parse_format(decl), inst)
        for inst in program.components.values()
        for decl in PORTS[inst.class_name].formats.values()
    ]
    entered = []
    terms = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for decl, inst in pairs:
            terms.append(decl.instantiate(inst.params, inst.definition_id))
    finally:
        sys.setprofile(None)
    assert all(tag == "const" for term in terms for tag, _ in term.dims)
    assert entered == []

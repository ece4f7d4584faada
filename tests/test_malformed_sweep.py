"""Malformed-input sweep: a mutated spec runs, or fails with a ReproError.

Every shipped spec under ``examples/specs`` is mutated one attribute or
child at a time: an attribute value becomes one of :data:`VALUES`, or the
attribute or a child element is dropped.  A seeded sample of the mutants
goes through parse -> lint -> expand -> ``ThreadedRuntime(nodes=1)`` for
three iterations.  Each must either complete or raise a
:class:`~repro.errors.ReproError`; any other exception, or a case that
outlives :data:`TIMEOUT_S`, fails the sweep.  The ``key=value`` request
grammar of ``Component.reconfigure`` is swept the same way over every
registered class.
"""

from __future__ import annotations

import random
import signal
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.analysis import lint_spec
from repro.components.registry import DEFAULT_REGISTRY, default_ports
from repro.core.expander import expand
from repro.core.parser import parse_string
from repro.core.ports import Param
from repro.core.program import ComponentInstance
from repro.errors import ReproError
from repro.hinch import ThreadedRuntime

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"
PORTS = default_ports()
VALUES = ("0", "-1", "x", "", "2.5", "3/2", "1/0", "nan", "1e9", "true")
SEED = 20071017
#: mutants per shipped spec, sized so the sweep stays within ~15 s on one
#: core: a jpip1 mutant that runs costs ~1 s, a blur one ~0.05 s
SAMPLES = {"blur3": 180, "blur35": 180, "pip1": 70, "pip12": 70,
           "jpip1": 40}
ITERATIONS = 3
TIMEOUT_S = 20


class Hang(BaseException):
    """A case outlived TIMEOUT_S (a BaseException: no handler eats it)."""


def _alarm(signum, frame):
    raise Hang(f"no result after {TIMEOUT_S} s")


@pytest.fixture()
def deadline():
    """Arm :func:`_alarm` per case: ``deadline()`` restarts the clock."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        yield lambda: signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mutations(root: ET.Element) -> list[tuple[int, str | None, object]]:
    """Every single-point mutation of the tree under ``root``.

    ``(element, attribute, value)``: set the attribute to ``value``, or
    drop it when ``value`` is None; ``(element, None, child)`` drops the
    element's ``child``-th child.  Elements count in document order.
    """
    found: list[tuple[int, str | None, object]] = []
    for index, elem in enumerate(root.iter()):
        for attr in sorted(elem.attrib):
            found.append((index, attr, None))
            found.extend((index, attr, value) for value in VALUES)
        found.extend((index, None, child) for child in range(len(elem)))
    return found


def mutate(text: str, mutation: tuple[int, str | None, object]) -> str:
    root = ET.fromstring(text)
    index, attr, value = mutation
    elem = list(root.iter())[index]
    if attr is None:
        elem.remove(elem[value])
    elif value is None:
        del elem.attrib[attr]
    else:
        elem.set(attr, value)
    return ET.tostring(root, encoding="unicode")


def outcome(xml: str) -> str:
    """``ran`` or the ReproError subclass the mutant ended in."""
    try:
        spec = parse_string(xml)
        lint_spec(spec, ports=PORTS, classes=DEFAULT_REGISTRY)
        program = expand(spec, PORTS, name="mutant")
        ThreadedRuntime(program, DEFAULT_REGISTRY, nodes=1,
                        max_iterations=ITERATIONS).run()
    except ReproError as exc:
        return type(exc).__name__
    return "ran"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_mutated_spec_runs_or_fails_with_a_repro_error(name, deadline):
    text = (SPECS / f"{name}.xml").read_text(encoding="utf-8")
    candidates = mutations(ET.fromstring(text))
    sample = random.Random(f"{SEED}:{name}").sample(
        candidates, SAMPLES[name])
    escaped = []
    outcomes: dict[str, int] = {}
    for mutation in sample:
        deadline()
        try:
            result = outcome(mutate(text, mutation))
        except (Exception, Hang) as exc:
            escaped.append(f"{mutation}: {type(exc).__name__}: {exc}")
            continue
        outcomes[result] = outcomes.get(result, 0) + 1
    assert not escaped, (
        f"{len(escaped)} of {len(sample)} {name} mutants escaped:\n"
        + "\n".join(escaped))
    # the sample reaches every stage: some mutants run, some are refused
    assert outcomes.get("ran") and len(outcomes) > 1, outcomes


def test_shipped_specs_cover_the_sample():
    assert sorted(p.stem for p in SPECS.glob("*.xml")) == sorted(SAMPLES)
    assert sum(SAMPLES.values()) >= 500


def valid_value(param: Param) -> object:
    """Some value inside ``param``'s domain."""
    if param.kind == "enum":
        return sorted(param.choices)[0]
    sample = {"int": 3, "float": 0.5, "str": "q", "bool": True,
              "pos": (0, 0)}[param.kind]
    if param.lo is not None and sample < param.lo:
        return param.lo
    if param.hi is not None and sample > param.hi:
        return param.hi
    return sample


def requests(names: list[str]) -> list[str]:
    """Well- and malformed ``reconfigure`` requests over ``names``."""
    found = ["", ";", "=1", "slice=1/2;slice=0/0", "slice=0/1"]
    for name in names + ["slice", "bogus"]:
        found += [f"{name}={value}" for value in VALUES]
        found += [name, f"{name}==1", f" {name} = 1 ;; "]
    return found


def test_reconfigure_requests_apply_or_fail_with_a_repro_error():
    tried = 0
    for class_name, cls in sorted(DEFAULT_REGISTRY.items()):
        declared = cls.ports.params
        raw = {name: valid_value(p) for name, p in declared.items()
               if p.required}
        instance = ComponentInstance(
            instance_id=class_name, definition_id=class_name,
            class_name=class_name,
            params=cls.ports.bind(class_name, raw), streams={})
        component = cls(instance)
        for request in requests(sorted(declared)):
            tried += 1
            try:
                component.reconfigure(request)
            except ReproError:
                pass
    assert tried >= 500


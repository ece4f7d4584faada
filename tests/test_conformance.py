"""Conformance: every executor reproduces the one-worker run.

One check states the invariant: :func:`repro.fuzz.runner.differential`
runs a program on every executor row of its determinism class (threads,
processes, ``SimRuntime(execute=True)`` with and without chain
grouping, across widths and depths) and holds each row to
``ThreadedRuntime(nodes=1)``: the sink's ordered records, the completed
iterations and the reconfiguration log.  Here it covers every
application at small geometries and every committed fuzz case;
``make fuzz`` applies the same check to generated programs, and the
per-executor tests elsewhere call :func:`assert_conforms` on the rows
they name.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.fuzz.campaign import replay_file
from repro.fuzz.runner import Row, differential

REG = default_registry()
PIP = dict(width=64, height=48, factor=4, slices=2, frames=2, collect=True)
JPIP = dict(width=64, height=48, pip_height=48, factor=4, slices=3, frames=2,
            collect=True)
BLUR = dict(width=48, height=36, slices=3, frames=2, collect=True)
AUDIO = dict(channels=8, block=64, slices=2, frames=4, collect=True)

#: name -> (builder, iterations, event posted before run()); a program
#: with managers must splice on the reference, or the check fails
APPS = {
    "pip1": (lambda: build_pip(1, **PIP), 4, None),
    "pip2-posted": (lambda: build_pip(2, reconfigurable=True, period=100,
                                      **PIP), 6, ("ui", "toggle_pip")),
    "pip12": (lambda: build_pip(2, reconfigurable=True, period=3, **PIP), 6,
              None),
    "jpip1": (lambda: build_jpip(1, **JPIP), 4, None),
    "jpip12": (lambda: build_jpip(2, reconfigurable=True, period=2, **JPIP),
               6, None),
    "blur3": (lambda: build_blur(3, **BLUR), 4, None),
    "blur5": (lambda: build_blur(5, **BLUR), 4, None),
    "blur35": (lambda: build_blur(reconfigurable=True, period=3, **BLUR), 9,
               None),
    "audio": (lambda: build_audio(**AUDIO), 6, None),
    "audio12": (lambda: build_audio(reconfigurable=True, period=3, **AUDIO),
                8, None),
}
CASES = sorted(Path(__file__).parent.glob("fuzz/case-*.json"))


def assert_conforms(spec, iterations, *rows, post=None, name="app"):
    """``spec`` conforms on ``rows`` (``(backend, width, depth)``), or on
    every row of its class when none are given."""
    failure = differential(make_program(spec, name=name), REG,
                           iterations=iterations, post=post,
                           rows=[Row(*row) for row in rows] or None)
    assert failure is None, str(failure)


@pytest.mark.parametrize("name", APPS)
def test_app_conforms(name):
    build, iterations, post = APPS[name]
    assert_conforms(build(), iterations, post=post, name=name)


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_fuzz_case_conforms(path):
    _, failure = replay_file(path)
    assert failure is None, str(failure)

"""Solver/runtime parity: solved formats == observed buffer geometry.

The acceptance bar for the X5xx pass: for every reachable configuration
of the shipped applications, the solver's per-stream plane formats must
be bit-identical to what the runtimes actually allocate — on both the
threaded and the process backend.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis import solve_formats
from repro.analysis.engine import reachable_configurations
from repro.analysis.formats import runtime_expectations
from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.fusion import FusedChain

REG = default_registry()

#: (name, spec factory) — small geometries, every shipped app shape,
#: including the reconfigurable variants (two reachable configs each).
APPS = {
    "pip": lambda: build_pip(1, width=64, height=48, factor=4, slices=2,
                             frames=2),
    "pip12": lambda: build_pip(2, width=64, height=48, factor=4, slices=2,
                               frames=2, reconfigurable=True, period=50),
    "blur35": lambda: build_blur(reconfigurable=True, period=50, width=48,
                                 height=36, slices=3, frames=2),
    "jpip12": lambda: build_jpip(2, width=64, height=48, pip_height=48,
                                 factor=4, slices=3, frames=2,
                                 reconfigurable=True, period=50),
}


def _programs_and_configs():
    for name, factory in APPS.items():
        program = make_program(factory(), name=name)
        for states in reachable_configurations(program):
            yield pytest.param(program, dict(states), id=f"{name}-{states}")


CASES = list(_programs_and_configs())


def _check_parity(program, states, runtime) -> None:
    expected = runtime_expectations(program, runtime.pg)
    assert expected, "solver produced no concrete plane expectations"
    observed = runtime.streams.observed_formats()
    # a process chain's internal streams are job-local temporaries, each
    # checked against this format when the chain allocates it
    internal = {name for node in runtime.pg.graph
                if isinstance(node.payload, FusedChain)
                for name in node.payload.internal}
    for name, (shape, dtype) in expected.items():
        if name in internal:
            continue
        got = observed.get(name)
        assert got is not None, f"expected stream {name!r} never written"
        kind, got_shape, got_dtype = got
        assert kind == "plane", (name, got)
        assert got_shape == tuple(shape), (name, got, shape)
        assert got_dtype == str(dtype), (name, got, dtype)
    # and the lint-facing table agrees with the runtime-facing one
    for solution in solve_formats(program):
        if solution.option_states != states:
            continue
        for name, (shape, dtype) in expected.items():
            sol = solution.streams[name]
            assert tuple(sol.shape) == tuple(shape)
            assert sol.dtype == str(dtype)
        break
    else:
        raise AssertionError(f"no solver solution for {states}")


@pytest.mark.parametrize("program,states", CASES)
def test_threaded_parity(program, states):
    rt = ThreadedRuntime(program, REG, nodes=2, max_iterations=3,
                         option_states=states)
    rt.run()
    _check_parity(program, states, rt)


@pytest.mark.skipif(sys.platform == "win32", reason="fork-based backend")
@pytest.mark.parametrize("program,states", CASES)
def test_process_parity(program, states):
    rt = ProcessRuntime(program, REG, workers=2, max_iterations=3,
                        option_states=states)
    rt.run()
    _check_parity(program, states, rt)

"""Cross-backend equivalence on the real applications.

``SimRuntime(execute=True)`` must produce exactly the frames the
threaded runtime produces (``tests/test_conformance.py``'s check, on the
rows named here); and executing the components must not change the
simulated time.
"""

from __future__ import annotations

import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.spacecake import SimRuntime

from tests.test_conformance import assert_conforms

REG = default_registry()

#: the simulator and threads at the same width and depth
BOTH = (("threaded", 2, 2), ("sim", 2, 2))


def test_pip_identical_frames():
    assert_conforms(build_pip(1, width=64, height=48, factor=4, slices=2,
                              frames=2, collect=True), 4, *BOTH)


def test_blur_identical_planes():
    assert_conforms(build_blur(5, width=48, height=36, slices=3, frames=2,
                               collect=True), 4, *BOTH)


def test_jpip_identical_frames():
    assert_conforms(build_jpip(1, width=64, height=48, pip_height=48,
                               factor=4, slices=3, frames=2, collect=True),
                    3, *BOTH)


def test_reconfigurable_blur_same_reconfig_points_when_sequential():
    """With pipeline depth 1 and 1 node both backends are deterministic
    and must reconfigure at identical iterations with identical output."""
    assert_conforms(build_blur(reconfigurable=True, period=3, width=48,
                               height=36, slices=3, frames=2, collect=True),
                    9, ("sim", 1, 1), name="blur35")


@pytest.mark.parametrize("nodes,depth", [(1, 1), (3, 4)])
def test_simulated_cycles_independent_of_execute_mode(nodes, depth):
    """Functional execution must not change virtual time."""
    spec = build_blur(3, width=48, height=36, slices=3, frames=2)
    program = make_program(spec, name="blur")
    plain = SimRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                       max_iterations=6, execute=False).run()
    functional = SimRuntime(program, REG, nodes=nodes, pipeline_depth=depth,
                            max_iterations=6, execute=True).run()
    assert plain.cycles == functional.cycles
    assert plain.jobs_executed == functional.jobs_executed

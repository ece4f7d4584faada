"""Prediction's numbers, pinned bit for bit.

``predict_run``, ``check_deadline`` and ``min_nodes_for_deadline`` on
the shipped applications in every reachable option state, compared with
``==`` against committed ``repr(float)`` values.  A float sum taken in
another order moves the last digits, which the rounded
``benchmarks/out/prediction_accuracy.txt`` cannot see and this test
does: the evaluation order of the series-parallel recursion is part of
what is pinned.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import reachable_configurations
from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.prediction import check_deadline, min_nodes_for_deadline, predict_run

REG = default_registry()
ITERATIONS = 24
BUDGET = 1e6

BUILDS = {
    "PiP-1": lambda: build_pip(1),
    "JPiP-1": lambda: build_jpip(1),
    "Blur-3x3": lambda: build_blur(3),
    "Blur-5x5": lambda: build_blur(5),
    "audio": lambda: build_audio(),
    "PiP-12": lambda: build_pip(2, reconfigurable=True, period=12),
    "Blur-35": lambda: build_blur(reconfigurable=True, period=12),
}

#: (app, enabled options) -> per node count (nodes, predict_run cycles,
#: initiation interval, iteration span, wcet), then the node count
#: ``min_nodes_for_deadline`` picks for a budget of exactly the
#: initiation interval at 2, 4 and 9 nodes
PINNED = {
    ("PiP-1", ()): (
        (1, 145029888.0, 6042912.0, 6042912.0, 6042912.0),
        (2, 73025486.0, 3029106.0, 3356048.0, 6058212.0),
        (4, 37166627.0, 1514553.0, 2331908.0, 6058212.0),
        (9, 17245038.666666664, 673134.6666666666, 1762941.3333333333, 6058212.0),
        (2, 4, 9),
    ),
    ("JPiP-1", ()): (
        (1, 1567380079.2000062, 65307503.30000027, 65307503.300000004,
         65307503.30000027),
        (2, 786356549.6000031, 32734601.650000136, 33460711.650000002,
         65469203.30000027),
        (4, 395507572.8250016, 16367300.825000068, 19059653.85, 65469203.30000027),
        (9, 269180601.5333333, 11029487.2, 15502395.933333334, 65469203.30000027),
        (2, 4, 6),
    ),
    ("Blur-3x3", ()): (
        (1, 41848032.0, 1743668.0, 1743668.0, 1743668.0),
        (2, 21105580.0, 874834.0, 984398.0, 1749668.0),
        (4, 10662354.0, 437417.0, 601763.0, 1749668.0),
        (9, 4860561.777777778, 194407.55555555556, 389188.0, 1749668.0),
        (2, 4, 9),
    ),
    ("Blur-5x5", ()): (
        (1, 61855680.0, 2577320.0, 2577320.0, 2577320.0),
        (2, 31109404.0, 1291660.0, 1401224.0, 2583320.0),
        (4, 15664266.0, 645830.0, 810176.0, 2583320.0),
        (9, 7083633.777777778, 287035.55555555556, 481816.0, 2583320.0),
        (2, 4, 9),
    ),
    ("audio", ()): (
        (1, 364339.19999999995, 15180.8, 15180.8, 15180.8),
        (2, 215492.8, 8790.4, 13313.600000000002, 17580.8),
        (4, 114403.2, 4395.2, 13313.600000000002, 17580.8),
        (9, 98892.00000000001, 3720.8, 13313.600000000002, 17580.8),
        (2, 4, 5),
    ),
    ("PiP-12", ()): (
        (1, 145056288.0, 6044012.0, 6044012.0, 6044012.0),
        (2, 73042986.0, 3029806.0, 3357448.0, 6059612.0),
        (4, 37176077.0, 1514903.0, 2333308.0, 6059612.0),
        (9, 17250016.444444444, 673290.2222222222, 1764341.3333333333, 6059612.0),
        (2, 4, 9),
    ),
    ("PiP-12", ("pip_opt",)): (
        (1, 258714144.0, 10779756.0, 10779756.0, 10779756.0),
        (2, 130375256.0, 5405028.0, 6059612.0, 10810056.0),
        (4, 66169154.0, 2702514.0, 4011332.0, 10810056.0),
        (9, 30499097.333333332, 1201117.3333333333, 2873398.6666666665, 10810056.0),
        (2, 4, 9),
    ),
    ("Blur-35", ("blur3",)): (
        (1, 41874432.0, 1744768.0, 1744768.0, 1744768.0),
        (2, 21123080.0, 875534.0, 985798.0, 1751068.0),
        (4, 10671804.0, 437767.0, 603163.0, 1751068.0),
        (9, 4865539.555555556, 194563.11111111112, 390588.0, 1751068.0),
        (2, 4, 9),
    ),
    ("Blur-35", ("blur5",)): (
        (1, 61882080.0, 2578420.0, 2578420.0, 2578420.0),
        (2, 31126904.0, 1292360.0, 1402624.0, 2584720.0),
        (4, 15673716.0, 646180.0, 811576.0, 2584720.0),
        (9, 7088611.555555556, 287191.1111111111, 483216.0, 2584720.0),
        (2, 4, 9),
    ),
}


@pytest.fixture(scope="module")
def programs():
    return {name: make_program(build(), name=name)
             for name, build in BUILDS.items()}


def test_every_reachable_state_is_pinned(programs):
    seen = set()
    for name, program in programs.items():
        for states in reachable_configurations(program):
            seen.add((name, tuple(sorted(o for o, on in states.items() if on))))
    assert seen == set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_prediction_is_pinned(programs, key):
    name, enabled = key
    program = programs[name]
    states = {option: option in enabled for option in program.options}
    *rows, chosen = PINNED[key]
    for nodes, cycles, interval, span, wcet in rows:
        assert predict_run(program, REG, nodes=nodes, iterations=ITERATIONS,
                           option_states=states) == cycles
        report = check_deadline(program, REG, nodes=nodes,
                                frame_budget_cycles=BUDGET,
                                option_states=states)
        assert (report.initiation_interval, report.iteration_span,
                report.wcet) == (interval, span, wcet)
    intervals = {nodes: interval for nodes, _, interval, _, _ in rows}
    picked = tuple(
        min_nodes_for_deadline(program, REG, frame_budget_cycles=intervals[n],
                               option_states=states).nodes
        for n in (2, 4, 9)
    )
    assert picked == chosen

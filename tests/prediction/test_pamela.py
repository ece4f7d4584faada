"""Tests for SPC performance prediction and WCET bounds."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.program import (
    IRCrossdep,
    IRManager,
    IROption,
    IRParallel,
    IRSeries,
    OptionInfo,
)
from repro.errors import PredictionError
from repro.prediction import (
    predict_iteration,
    predict_run,
    wcet_sequential,
    wcet_span,
)

from tests.graph.helpers import program, sp_programs, task, weight


def series(*children):
    return IRSeries(children)


def parallel(*children):
    return IRParallel(children)


def test_series_adds():
    prog = program(series(task("a", 3), task("b", 4)))
    assert predict_iteration(prog, 1, weight) == 7
    assert predict_iteration(prog, 4, weight) == 7


def test_parallel_on_one_node_is_sum():
    prog = program(parallel(task("a", 3), task("b", 4)))
    assert predict_iteration(prog, 1, weight) == 7


def test_parallel_on_many_nodes_is_span():
    prog = program(parallel(task("a", 3), task("b", 4)))
    assert predict_iteration(prog, 2, weight) == 4
    assert predict_iteration(prog, 8, weight) == 4


def test_contention_term():
    # 8 equal tasks on 2 nodes: work/P = 8*5/2 = 20 > span 5
    prog = program(parallel(*[task(f"t{i}", 5) for i in range(8)]))
    assert predict_iteration(prog, 2, weight) == 20
    assert predict_iteration(prog, 8, weight) == 5


def test_nested_structure():
    # series(a, parallel(chain(b, c), d)) with weights 1, (2+3), 4
    prog = program(series(
        task("a", 1),
        parallel(series(task("b", 2), task("c", 3)), task("d", 4)),
    ))
    assert predict_iteration(prog, 2, weight) == 1 + 5
    assert predict_iteration(prog, 1, weight) == 10


def test_crossdep_is_a_series_of_parblock_blocks():
    # the paper's SP form: a synchronization point between the parblocks
    prog = program(IRCrossdep((
        (task("h0", 2), task("h1", 5)),
        (task("v0", 4), task("v1", 1)),
    )))
    assert wcet_span(prog, weight) == 5 + 4
    assert predict_iteration(prog, 1, weight) == 7 + 5


def test_manager_polls_and_disabled_option_vanishes():
    root = series(task("a", 1), IRManager("m", IROption(
        "o", parallel(task("b", 2), task("c", 3)))))
    prog = program(root, options={"o": OptionInfo("o", "m", True, (), ())})
    for states, work, span in (({"o": True}, 26, 24), ({"o": False}, 21, 21)):
        assert wcet_sequential(prog, weight, states, manager_cycles=10) == work
        assert wcet_span(prog, weight, states, manager_cycles=10) == span


def test_nested_series_flattens_into_one_sum():
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): the nested series is summed
    # as one left-to-right series, in the span and in the work alike
    prog = program(series(task("a", 0.1),
                          series(task("b", 0.2), task("c", 0.3))))
    assert predict_iteration(prog, 1, weight) == 0.1 + 0.2 + 0.3
    assert predict_iteration(prog, 1, weight) != 0.1 + (0.2 + 0.3)
    assert wcet_sequential(prog, weight) == 0.1 + 0.2 + 0.3


def test_singleton_composition_is_its_child():
    prog = program(series(parallel(series(task("a", 3)))))
    assert predict_iteration(prog, 2, weight) == 3
    assert wcet_span(prog, weight) == 3


def test_invalid_nodes():
    with pytest.raises(PredictionError):
        predict_iteration(program(task("a")), 0, weight)


def test_wcet_bounds_bracket_prediction():
    prog = program(series(
        task("a", 2),
        parallel(task("b", 3), task("c", 5)),
    ))
    seq = wcet_sequential(prog, weight)
    span = wcet_span(prog, weight)
    assert seq == 10
    assert span == 7
    for nodes in (1, 2, 4):
        t = predict_iteration(prog, nodes, weight)
        assert span <= t <= seq


@given(sp_programs())
def test_prop_prediction_monotone_in_nodes(prog):
    costs = [predict_iteration(prog, n, weight) for n in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


@given(sp_programs())
def test_prop_prediction_between_span_and_work(prog):
    seq = wcet_sequential(prog, weight)
    span = wcet_span(prog, weight)
    for nodes in (1, 3, 9):
        t = predict_iteration(prog, nodes, weight)
        assert span - 1e-9 <= t <= seq + 1e-9


@given(sp_programs())
def test_prop_one_node_prediction_is_total_work(prog):
    assert predict_iteration(prog, 1, weight) == pytest.approx(
        wcet_sequential(prog, weight)
    )


# -- against the simulator ----------------------------------------------------


def test_predict_run_tracks_simulation():
    """Analytic prediction within 35% of simulation across apps/nodes."""
    from repro.bench.harness import Harness, PIPELINE_DEPTH

    h = Harness(frames_scale=0.25)
    for name in ("PiP-1", "Blur-3x3"):
        for nodes in (1, 4, 9):
            simulated = h.run_xspcl(name, nodes=nodes).cycles
            predicted = predict_run(
                h.program(name, "xspcl"),
                h.registry,
                nodes=nodes,
                iterations=h.frames(name),
                pipeline_depth=PIPELINE_DEPTH,
                cost_params=h.cost_params,
            )
            ratio = predicted / simulated
            assert 0.65 < ratio < 1.35, (
                f"{name}@{nodes}: predicted {predicted:.3g} vs simulated "
                f"{simulated:.3g} (ratio {ratio:.2f})"
            )


def test_predict_run_validates_iterations():
    from repro.bench.harness import Harness

    h = Harness(frames_scale=0.25)
    with pytest.raises(PredictionError):
        predict_run(h.program("PiP-1", "xspcl"), h.registry, nodes=1,
                    iterations=0)

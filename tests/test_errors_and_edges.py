"""Error taxonomy and assorted edge cases across the package."""

from __future__ import annotations

import pytest

from repro import errors


def test_every_error_derives_from_repro_error():
    exception_types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert len(exception_types) >= 15
    for exc in exception_types:
        assert issubclass(exc, errors.ReproError)


def test_hierarchy_relationships():
    assert issubclass(errors.ParseError, errors.XSPCLError)
    assert issubclass(errors.ValidationError, errors.XSPCLError)
    assert issubclass(errors.ExpansionError, errors.XSPCLError)
    assert issubclass(errors.RegistryError, errors.ComponentError)


def test_parse_error_line_formatting():
    err = errors.ParseError("bad tag", line=42)
    assert "line 42" in str(err)
    assert err.line == 42
    plain = errors.ParseError("bad tag")
    assert plain.line is None
    assert "line" not in str(plain)


def test_catch_all_at_api_boundary():
    """One except clause covers any library failure."""
    from repro.core import parse_string

    with pytest.raises(errors.ReproError):
        parse_string("<nope/>")


# -- validator edge: placeholder defaults ----------------------------------------


def test_placeholder_default_rejected():
    from repro.core import AppBuilder, validate

    b = AppBuilder()
    b.procedure("main").call("p", streams={"out": "s"})
    p = b.procedure("p", stream_formals=["out"],
                    param_formals={"n": "${oops}"})
    p.component("x", "source", streams={"output": "${out}"})
    with pytest.raises(errors.ValidationError, match="must be a literal"):
        validate(b.build())


# -- simulator edge: deadlock surfaced loudly -----------------------------------


def test_simulator_reports_scheduler_deadlock():
    """A corrupted graph (cycle injected post-build) must not hang."""
    from repro.core import AppBuilder, expand
    from repro.spacecake import SimRuntime
    from tests.spacecake.helpers import PORTS, REGISTRY

    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "costed_source", streams={"output": "a"},
                   params={"cycles": 10})
    main.component("snk", "costed_sink", streams={"input": "a"})
    program = expand(b.build(), PORTS)
    rt = SimRuntime(program, REGISTRY, nodes=1, max_iterations=3)
    # sabotage: inject a dependency cycle whose nodes can never become
    # ready, then rebuild the scheduler over the corrupted graph
    from repro.hinch.scheduler import DataflowScheduler

    rt.pg.graph.add_node("g1", kind="barrier")
    rt.pg.graph.add_node("g2", kind="barrier")
    rt.pg.graph.add_edge("g1", "g2")
    rt.pg.graph.add_edge("g2", "g1")
    rt.scheduler = DataflowScheduler(rt.pg, pipeline_depth=1,
                                     max_iterations=3, hooks=rt)
    with pytest.raises(errors.SimulationError, match="deadlocked"):
        rt.run()


def test_threaded_runtime_rejects_bad_depth():
    from repro.core import AppBuilder, expand
    from repro.hinch import ThreadedRuntime
    from tests.hinch.helpers import PORTS, REGISTRY

    b = AppBuilder()
    b.procedure("main").component("src", "producer", streams={"output": "s"})
    program = expand(b.build(), PORTS)
    with pytest.raises(errors.SchedulingError):
        ThreadedRuntime(program, REGISTRY, nodes=1, pipeline_depth=0,
                        max_iterations=1)


def test_zero_iteration_run_completes_immediately():
    from repro.core import AppBuilder, expand
    from repro.hinch import ThreadedRuntime
    from repro.spacecake import SimRuntime
    from tests.hinch.helpers import PORTS, REGISTRY

    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "producer", streams={"output": "s"})
    main.component("snk", "collector", streams={"input": "s"})
    program = expand(b.build(), PORTS)
    thr = ThreadedRuntime(program, REGISTRY, nodes=2, max_iterations=0).run()
    assert thr.completed_iterations == 0
    sim = SimRuntime(program, REGISTRY, nodes=2, max_iterations=0).run()
    assert sim.completed_iterations == 0
    assert sim.cycles == 0

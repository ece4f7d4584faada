"""The coordination core's contracts (repro.hinch.engine).

``build_configuration`` is deterministic in its arguments — a process
worker that splices to a configuration its dispatcher built after the
fork builds it again and must derive the same graph — and it is the
*only* way any backend obtains a graph: once at construction, then once
per *distinct* configuration a splice installs
(``Coordinator.configuration`` memoises the result, and a forked worker
looks its splices up in its copy of that cache).
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.hinch.engine as engine
from repro.analysis.engine import reachable_configurations
from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_ports, default_registry
from repro.core import expand, parse_file
from repro.errors import StreamFormatError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.spacecake import SimRuntime

REG = default_registry()

APPS = {
    "pip12": lambda: build_pip(2, width=64, height=48, factor=4, slices=2,
                               frames=2, reconfigurable=True, period=50),
    "jpip12": lambda: build_jpip(2, width=64, height=48, pip_height=48,
                                 factor=4, slices=3, frames=2,
                                 reconfigurable=True, period=50),
    "blur35": lambda: build_blur(reconfigurable=True, period=50, width=48,
                                 height=36, slices=3, frames=2),
    "audio12": lambda: build_audio(channels=8, reconfigurable=True),
}


def _fingerprint(program, states, group_chains, fuse):
    config = engine.build_configuration(
        program, REG, states, group_chains=group_chains,
        chains=fuse,
    )
    pg = config.pg
    return {
        "nodes": [(n.node_id, n.kind) for n in pg.graph],
        "edges": sorted(pg.graph.edges()),
        "active": pg.active_components,
        "overrides": config.overrides,
        "expectations": config.expectations,
    }


def _cases():
    for name, factory in APPS.items():
        # two Programs derived separately: what the dispatcher and a
        # worker hold are equal, not shared, objects
        mine = make_program(factory(), name=name)
        theirs = make_program(factory(), name=name)
        for states in reachable_configurations(mine):
            for group_chains, fuse in itertools.product((False, True), repeat=2):
                yield pytest.param(
                    mine, theirs, dict(states), group_chains, fuse,
                    id=f"{name}-{sorted(states.items())}-g{int(group_chains)}"
                       f"f{int(fuse)}",
                )


@pytest.mark.parametrize("mine,theirs,states,group_chains,fuse", list(_cases()))
def test_build_configuration_is_deterministic(mine, theirs, states,
                                              group_chains, fuse):
    first = _fingerprint(mine, states, group_chains, fuse)
    assert first["nodes"], "empty graph"
    assert first == _fingerprint(theirs, states, group_chains, fuse)
    # and repeatable on the same Program (no state leaks between builds)
    assert first == _fingerprint(mine, states, group_chains, fuse)


# -- one call per configuration, on every backend -----------------------------


def _one_toggle_blur():
    # the timer never fires within the run; the single toggle is posted
    return make_program(
        build_blur(reconfigurable=True, period=1000, width=48, height=36,
                   slices=3),
        name="blur35-one-toggle",
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda p: ThreadedRuntime(p, REG, nodes=1, max_iterations=6),
        lambda p: ProcessRuntime(p, REG, workers=1, max_iterations=6),
        lambda p: SimRuntime(p, REG, nodes=2, max_iterations=6),
    ],
    ids=["threaded", "process", "sim"],
)
def test_each_runtime_builds_once_per_configuration(make, monkeypatch):
    calls = []
    real = engine.build_configuration

    def counting(program, registry, option_states, **kwargs):
        calls.append(dict(option_states or {}))
        return real(program, registry, option_states, **kwargs)

    monkeypatch.setattr(engine, "build_configuration", counting)
    rt = make(_one_toggle_blur())
    assert len(calls) == 1, "construction builds exactly once"
    rt.post_event("ui", "switch_kernel")
    result = rt.run()
    assert result.reconfig_count == 1
    # dispatcher side on the process backend: its worker looks the splice
    # up in the cache it inherited at fork, in its own address space
    # (test_workers_build_each_configuration_at_most_once counts there)
    assert len(calls) == 2, "one build per splice"
    assert calls[1] == {"blur3": False, "blur5": True}
    assert rt.pg.option_states == calls[1]


@pytest.mark.parametrize(
    "make",
    [
        lambda p: ThreadedRuntime(p, REG, nodes=1, max_iterations=30),
        lambda p: SimRuntime(p, REG, nodes=2, max_iterations=30),
    ],
    ids=["threaded", "sim"],
)
def test_one_build_per_distinct_configuration(make, monkeypatch):
    """Toggling between two configurations solves and groups each once."""
    calls = []
    real = engine.build_configuration

    def counting(program, registry, option_states, **kwargs):
        calls.append(dict(option_states or {}))
        return real(program, registry, option_states, **kwargs)

    monkeypatch.setattr(engine, "build_configuration", counting)
    program = make_program(
        build_blur(reconfigurable=True, period=5, width=48, height=36,
                   slices=3),
        name="blur35-toggling",
    )
    rt = make(program)
    result = rt.run()
    assert result.reconfig_count >= 3, "the run must revisit a configuration"
    assert len(calls) == 2, "one build per distinct configuration"
    # every splice still installs the configuration it asked for
    states = [s for _, s in rt.reconfig_log]
    assert states[0] == calls[1]
    assert states[0] != states[1] and states[0] == states[2]


def test_workers_build_each_configuration_at_most_once(monkeypatch, tmp_path):
    """The worker-side twin: a forked worker splices through its copy of
    the dispatcher's configuration cache, so a configuration it inherited
    or has built once costs it no further build."""
    log = tmp_path / "builds"
    real = engine.solve_formats_or_raise

    # every build solves the formats once, in whichever process builds
    def counting(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_formats_or_raise", counting)
    program = make_program(
        build_blur(reconfigurable=True, period=5, width=48, height=36,
                   slices=3),
        name="blur35-toggling",
    )
    result = ProcessRuntime(program, REG, workers=2, max_iterations=30).run()
    assert result.reconfig_count >= 3, "the run must revisit a configuration"
    builds = Counter(log.read_text().split())
    assert builds.pop(str(os.getpid())) == 2, "dispatcher: one per configuration"
    assert len(builds) <= 2 and all(n <= 1 for n in builds.values()), builds


# -- a lint-rejected spec never reaches job execution, on any backend ---------

MISMATCH = (Path(__file__).parents[1] / "analysis" / "fixtures"
            / "format_mismatch.xml")


@pytest.mark.parametrize(
    "runtime_cls,kwargs",
    [
        (ThreadedRuntime, {"nodes": 1}),
        (ProcessRuntime, {"workers": 1}),
        (SimRuntime, {"nodes": 1, "execute": True}),
        (SimRuntime, {"nodes": 1}),
    ],
    ids=["threaded", "process", "sim-execute", "sim-cost-only"],
)
def test_mismatch_fixture_fails_at_build(runtime_cls, kwargs):
    program = expand(parse_file(MISMATCH), default_ports(), name="mismatch")
    with pytest.raises(StreamFormatError, match="X501"):
        runtime_cls(program, REG, max_iterations=2, **kwargs)


# -- node plans: compiled per configuration, contexts reused across jobs ------


def _sink_planes(make_spec, frames, option_states=None):
    program = make_program(make_spec(), name="plans")
    rt = ThreadedRuntime(program, REG, nodes=1, max_iterations=frames,
                         option_states=option_states)
    result = rt.run()
    return rt, result.components["sink"].ordered_planes()


@pytest.mark.parametrize(
    "build,option,others",
    [
        # the splice swaps component objects (blur3's kernels for blur5's)
        (lambda period: build_blur(reconfigurable=True, period=period,
                                   width=48, height=36, slices=3,
                                   collect=True),
         "blur5", {"blur3"}),
        # the splice changes the alias map: with the branch off, the mic
        # filter's "output" port is the bypassed stream "features"
        (lambda period: build_audio(channels=8, reconfigurable=True,
                                    period=period, collect=True),
         "vib_branch", set()),
    ],
    ids=["blur35", "audio-bypass"],
)
def test_plans_are_rebuilt_by_a_splice(build, option, others):
    """Every frame equals the static run of the configuration it ran under.

    A plan that survived a splice would run a torn-down component or
    write the pre-bypass stream; the sink would see the wrong frame (or
    a read-before-write).
    """
    frames = 20
    rt, toggled = _sink_planes(lambda: build(4), frames)
    assert len(rt.reconfig_log) >= 3
    static = {
        state: _sink_planes(
            lambda: build(10**6), frames,
            {option: state, **{o: not state for o in others}},
        )[1]
        for state in (True, False)
    }
    initial = make_program(build(4), name="p").build_graph(None)
    state = initial.option_states[option]
    log = dict(rt.reconfig_log)
    for k in range(frames):
        if k in log:
            state = log[k][option]
        assert np.array_equal(toggled[k], static[state][k]), (k, state)


@pytest.mark.parametrize(
    "build,option,others",
    [
        (lambda period: build_blur(reconfigurable=True, period=period,
                                   width=48, height=36, slices=3,
                                   collect=True),
         "blur5", {"blur3"}),
        (lambda period: build_audio(channels=8, reconfigurable=True,
                                    period=period, collect=True),
         "vib_branch", set()),
    ],
    ids=["blur35", "audio-bypass"],
)
def test_a_request_reverted_before_the_drain_ends_does_not_splice(
        build, option, others):
    """Toggles every 3 frames outpace a depth-5 drain, so a request is
    often undone by the next before the pipeline empties.  The pair is
    withdrawn and admission resumes: no splice installs the configuration
    already installed, and every frame still equals the static run of the
    configuration it ran under, on the timed rows of the conformance
    table and on deeper pipelines."""
    from repro.fuzz.runner import ROWS, Row, _runtime

    frames = 24
    program = make_program(build(3), name="revert")
    static = {
        state: _sink_planes(
            lambda: build(10**6), frames,
            {option: state, **{o: not state for o in others}},
        )[1]
        for state in (True, False)
    }
    initial = program.build_graph(None).option_states
    rows = [Row(*spec) for spec in ROWS["timed"]]
    rows += [Row("threaded", 1, 5), Row("sim", 1, 5), Row("process", 1, 5)]
    for row in rows:
        rt = _runtime(row, program, REG, frames)
        result = rt.run()
        states = [initial] + [s for _, s in rt.reconfig_log]
        assert all(a != b for a, b in zip(states, states[1:])), (row, states)
        assert result.reconfig_count == len(rt.reconfig_log) >= 2, row
        planes = result.components["sink"].ordered_planes()
        state = initial[option]
        log = dict(rt.reconfig_log)
        for k in range(frames):
            if k in log:
                state = log[k][option]
            assert np.array_equal(planes[k], static[state][k]), (row, k)


@pytest.mark.parametrize(
    "build,kept",
    [
        # blur3's h/v pair gives way to blur5's (and back): new node ids
        (lambda: build_blur(reconfigurable=True, period=6, width=48,
                            height=36, slices=3),
         {"src", "timer", "mgr.enter", "mgr.exit", "sink"}),
        # the mic filter keeps its id and members, but its "output" port
        # is the bypassed stream "features" with the branch off
        (lambda: build_audio(channels=8, reconfigurable=True, period=6),
         {"mic_src", "clock", "vib_mgr.enter", "vib_mgr.exit", "sink"}),
    ],
    ids=["blur35", "audio-bypass"],
)
def test_a_splice_keeps_the_plans_of_unchanged_nodes(build, kept):
    """A node the splice leaves as it was keeps its plan object; every
    other node compiles a fresh one on first use; every plan runs the
    live components."""
    rt = ThreadedRuntime(make_program(build(), name="p"), REG, nodes=1,
                         max_iterations=24)
    splice = rt.on_reconfigure

    def recording(plans, resume):
        before = dict(rt.node_plans)
        pg = splice(plans, resume)
        # the kept nodes' plan objects, and no other: a changed node
        # compiles a fresh plan on its first job
        assert set(rt.node_plans) == kept
        assert all(rt.node_plans[n] is before[n] for n in kept)
        return pg

    rt.on_reconfigure = recording
    rt.run()
    assert len(rt.reconfig_log) >= 3
    for node_id, plan in rt.node_plans.items():
        assert node_id in rt.pg.graph
        for component in plan.components:
            assert rt.host.live[component.instance.instance_id] is component


def test_reused_context_starts_every_job_clean():
    """One context per instance, and no job sees the previous job's state."""
    from repro.core import AppBuilder
    from repro.core.ports import PortSpec
    from repro.hinch.component import Component

    seen = []

    class Probe(Component):
        ports = PortSpec(inputs=("input",), outputs=("output",))

        def run(self, job):
            seen.append((id(job), job.iteration))
            job.write("output", job.read("input"))

    class Source(Component):
        ports = PortSpec(outputs=("output",))

        def run(self, job):
            job.write("output", np.full(job.iteration + 1, 7, dtype=np.uint8))

    class Sink(Component):
        ports = PortSpec(inputs=("input",))

        def run(self, job):
            assert len(job.read("input")) == job.iteration + 1

    registry = {"source": Source, "probe": Probe, "sink": Sink}
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    main.component("p", "probe", streams={"input": "a", "output": "b"})
    main.component("snk", "sink", streams={"input": "b"})
    program = expand(b.build(), {n: c.ports for n, c in registry.items()})
    result = ThreadedRuntime(program, registry, nodes=2, pipeline_depth=3,
                             max_iterations=9).run()
    assert result.completed_iterations == 9
    assert len({ctx for ctx, *_ in seen}) == 1, "the context is reused"
    assert sorted(k for _, k in seen) == list(range(9))


# -- node plans: every node kind is a plan --------------------------------

PLAN_APPS = {
    # the manager nodes
    "blur35": lambda: build_blur(reconfigurable=True, period=50, width=48,
                                 height=36, slices=3, frames=2),
    # the barriers
    "pip": lambda: build_pip(1, width=64, height=48, factor=4, slices=2,
                             frames=2),
}


@pytest.mark.parametrize("name", sorted(PLAN_APPS))
def test_every_node_kind_compiles_to_its_plan(name):
    """A task plan runs its components, a manager plan is one step that
    polls the manager's own queue, a barrier plan does nothing."""
    from repro.hinch.events import Event

    rt = ThreadedRuntime(make_program(PLAN_APPS[name](), name=name), REG,
                         nodes=1, max_iterations=1)
    kinds = Counter()
    for node in rt.pg.graph:
        plan = rt.node_plans[node.node_id]
        kinds[node.kind] += 1
        if node.kind == "task":
            assert [run for run, _ in plan.steps] == [
                component.run for component in plan.components]
            assert [ctx.instance for _, ctx in plan.steps] == list(
                node.members)
        elif node.kind == "barrier":
            assert plan.steps == () and plan.components == ()
        else:
            manager = rt.managers[node.payload]
            ((step, ctx),) = plan.steps
            assert step == manager.poll and plan.components == ()
            ignored = manager.events_ignored
            rt.post_event(manager.info.queue, "no_such_event")
            plan.run(3)
            assert ctx.iteration == 3
            assert manager.events_ignored == ignored + 1
            assert not rt.broker.queue(manager.info.queue).peek_count()
    expected = {"blur35": {"manager_enter", "manager_exit"},
                "pip": {"barrier"}}[name]
    assert expected <= set(kinds), kinds


@pytest.mark.parametrize("nodes", [1, 2])
def test_a_manager_step_locks_only_where_jobs_run_concurrently(nodes):
    """At nodes=2 a manager's handlers run under the coordinator's lock
    (a worker may complete a job meanwhile); at nodes=1 nothing else
    runs, and the step takes no lock."""
    program = make_program(PLAN_APPS["blur35"](), name="blur35")
    rt = ThreadedRuntime(program, REG, nodes=nodes, max_iterations=4)
    held = []
    target_option_state = rt.target_option_state

    def recording(option):
        held.append(rt._lock._is_owned())
        return target_option_state(option)

    rt.target_option_state = recording
    rt.post_event("ui", "switch_kernel")
    result = rt.run()
    assert result.events_handled == 1 and result.reconfig_count == 1
    assert held and set(held) == {nodes > 1}

"""The coordination core's contracts (repro.hinch.engine).

``build_configuration`` is deterministic in its arguments — the process
backend's dispatcher and workers each call it after a splice and must
derive the same graph — and it is the *only* way any backend obtains a
graph: once at construction, once per splice.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import repro.hinch.engine as engine
from repro.analysis.engine import reachable_configurations
from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.registry import default_ports, default_registry
from repro.core import expand, parse_file
from repro.core.reslice import reslice, slice_groups
from repro.errors import StreamFormatError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.shm import NameInterner
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


def _resliced(factory, name):
    """``factory()`` expanded, with every re-sliceable group narrowed to 2."""
    program = make_program(factory(), name=name)
    groups = slice_groups(program)
    assert groups, f"{name} offers no re-sliceable group"
    return reslice(program, {def_id: 2 for def_id in groups})


#: re-sliced programs, as the auto-tuner hands them to a splice.  Blur-35's
#: kernels sit in crossdep regions, which are never re-sliceable, so the
#: Blur entry is the SP-form Blur-3 (two plain slice regions).
RESLICED = {
    "blur3sp-resliced": lambda: _resliced(
        lambda: build_blur(3, width=48, height=36, slices=3, frames=2,
                           sp_form=True), "blur3sp"),
    "audio12-resliced": lambda: _resliced(APPS["audio12"], "audio12"),
}


def _fingerprint(program, states, group_chains, fuse):
    config = engine.build_configuration(
        program, REG, states, group_chains=group_chains, fuse=fuse,
        fuse_backend="numpy", parallel_headroom=2 if fuse else None,
    )
    pg = config.pg
    return {
        "nodes": [(n.node_id, n.kind) for n in pg.graph],
        "edges": sorted(pg.graph.edges()),
        "active": pg.active_components,
        "overrides": config.overrides,
        "expectations": config.expectations,
        "interned": NameInterner.names_of(pg),
    }


def _cases():
    factories = {
        name: (lambda f=factory, n=name: make_program(f(), name=n))
        for name, factory in APPS.items()
    }
    factories.update(RESLICED)
    for name, factory in factories.items():
        # two Programs derived separately: what the dispatcher and a
        # worker hold are equal, not shared, objects
        mine, theirs = factory(), factory()
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
    # dispatcher side on the process backend: its worker rebuilds through
    # the same function, in its own address space
    assert len(calls) == 2, "one build per splice"
    assert calls[1] == {"blur3": False, "blur5": True}
    assert rt.pg.option_states == calls[1]


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

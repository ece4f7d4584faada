"""The synthetic sources: what they keep between frames, what they reject."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import build_audio, build_blur, build_jpip, build_pip, make_program
from repro.components.audio import AudioSource
from repro.components.registry import default_registry
from repro.components.streaming import MjpegSource, VideoSource
from repro.core import parse_string
from repro.core.xmlio import spec_to_xml
from repro.errors import ComponentError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.spacecake import SimRuntime

REG = default_registry()
ITERATIONS = 30

APPS = {
    "pip": lambda frames: build_pip(1, width=64, height=48, factor=4,
                                    slices=2, frames=frames, collect=True),
    "blur": lambda frames: build_blur(3, width=48, height=36, slices=3,
                                      frames=frames, collect=True),
    "jpip": lambda frames: build_jpip(1, width=64, height=48, pip_height=48,
                                      factor=4, slices=3, frames=frames,
                                      collect=True),
    "audio": lambda frames: build_audio(channels=4, block=32, slices=2,
                                        frames=frames, collect=True),
}
#: ``fused``: the threaded build, whose JPiP source+decode pair runs as
#: one kernel (``_zz_cache``); else the simulator's unfused graph, where
#: the source encodes (``_cache``)
RUNS = [(app, False) for app in APPS] + [("jpip", True)]


def _run(app: str, frames: int | None, fused: bool):
    """The run's sources and its sink output, in iteration order."""
    program = make_program(APPS[app](frames), name=app)
    if fused:
        runtime = ThreadedRuntime(program, REG, nodes=1,
                                  max_iterations=ITERATIONS)
    else:
        runtime = SimRuntime(program, REG, nodes=1,
                             max_iterations=ITERATIONS, execute=True)
    result = runtime.run()
    sources = [c for c in result.components.values()
               if isinstance(c, (VideoSource, MjpegSource, AudioSource))]
    assert sources
    sink = result.components["sink"]
    if hasattr(sink, "ordered_frames"):
        output = [(f.y, f.u, f.v) for f in sink.ordered_frames()]
    else:
        output = [(p,) for p in sink.ordered_planes()]
    assert len(output) == ITERATIONS
    return sources, output


def _caches(source) -> list[dict]:
    return [source._cache] + ([source._zz_cache]
                              if isinstance(source, MjpegSource) else [])


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("app, fused", RUNS)
def test_a_source_without_a_loop_keeps_no_frame(app, fused):
    """No index comes back without ``frames``, so nothing is kept; the
    output is what a source that keeps every frame produces (a loop
    longer than the run)."""
    sources, output = _run(app, None, fused)
    assert all(not cache for s in sources for cache in _caches(s))
    kept_sources, kept = _run(app, ITERATIONS + 10, fused)
    assert any(len(cache) == ITERATIONS
               for s in kept_sources for cache in _caches(s))
    assert all(_same(a, b) for a, b in zip(output, kept))


@pytest.mark.parametrize("app, fused", RUNS)
def test_a_looping_source_keeps_at_most_its_clip(app, fused):
    sources, output = _run(app, 4, fused)
    assert all(len(cache) <= 4 for s in sources for cache in _caches(s))
    assert any(len(cache) == 4 for s in sources for cache in _caches(s))
    assert all(_same(output[k], output[k % 4]) for k in range(ITERATIONS))


@pytest.mark.parametrize("runtime, kwargs", [
    (ThreadedRuntime, {"nodes": 1}),
    (ProcessRuntime, {"workers": 2}),
], ids=["threaded-1", "process-2"])
@pytest.mark.parametrize("quality", ["0", "101", "high"])
def test_a_bad_quality_fails_at_construction_naming_the_component(
        runtime, kwargs, quality):
    xml = spec_to_xml(APPS["jpip"](2)).replace(
        '<param name="seed" value="500"/>',
        f'<param name="seed" value="500"/>'
        f'<param name="quality" value="{quality}"/>')
    assert f'value="{quality}"' in xml
    program = make_program(parse_string(xml), name="jpip1")
    with pytest.raises(ComponentError) as info:
        runtime(program, REG, max_iterations=2, **kwargs)
    assert "'pip0_read'" in str(info.value)
    assert f"got {quality}" in str(info.value).replace("'", "")

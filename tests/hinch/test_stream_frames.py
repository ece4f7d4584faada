"""The store's per-iteration frames: one table, retired in one step.

Every stream's slot of iteration k lives in the
:class:`~repro.hinch.stream.StreamStore`'s frame for k, so retiring k is
one dict pop plus one append per recycled buffer, whatever the number of
streams, and a run holds at most ``pipeline_depth`` frames.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.apps import build_blur, build_pip, make_program
from repro.components.registry import default_registry
from repro.hinch import ThreadedRuntime
from repro.hinch.shm import SharedPlanePool
from repro.hinch.stream import StreamStore


def _release_events(streams: int) -> tuple[int, int, StreamStore]:
    """Profile events of retiring an iteration in which half of
    ``streams`` streams hold a recycled buffer and half a put value."""
    store = StreamStore()
    recycled = streams // 2
    for i in range(streams):
        stream = store.stream(f"s{i}")
        if i < recycled:
            stream.set_expected((2, 3), np.uint8)
            stream.ensure_buffer(0)
        else:
            stream.put(0, np.zeros(3))
    events = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    # no collection inside the count: its callbacks and the finalizers
    # it runs would be counted as the release's calls
    gc.disable()
    sys.setprofile(profile)
    try:
        store.release_iteration(0)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events[0], recycled, store


def test_retiring_an_iteration_costs_the_same_at_4_and_64_streams():
    small, small_recycled, _ = _release_events(4)
    large, large_recycled, store = _release_events(64)
    # one event per recycled buffer (its append) on top of a constant:
    # the call and the frame's pop
    assert large - large_recycled == small - small_recycled <= 3
    assert store.live_iterations == 0 and store.total_live_slots() == 0
    spares = [len(store.stream(f"s{i}")._spare) for i in range(64)]
    assert spares == [1] * large_recycled + [0] * (64 - large_recycled)


def test_retiring_an_iteration_returns_packed_planes_to_the_pool():
    pool = SharedPlanePool()
    store = StreamStore(pool)
    store.stream("plane").put(0, pool.pack(np.zeros((4, 4), np.uint8)))
    store.stream("record").put(0, pool.pack({"values": np.arange(6)}))
    assert pool.live_planes == 2
    store.release_iteration(0)
    assert pool.live_planes == 0 and store.live_iterations == 0


PIP = dict(width=64, height=48, factor=4, slices=2, frames=4)
BLUR = dict(width=48, height=36, slices=3)


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize("spec", [
    pytest.param(lambda: build_pip(2, reconfigurable=True, period=4, **PIP),
                 id="pip12"),
    pytest.param(lambda: build_blur(reconfigurable=True, period=3, **BLUR),
                 id="blur35"),
])
def test_a_run_holds_at_most_depth_frames(spec, nodes, monkeypatch):
    """Frames are only created between two retirements, so the count
    just before each retirement is the most the store held since the
    last one; after ``run()`` it holds none."""
    depth, iterations = 3, 24
    held: list[int] = []
    release_iteration = StreamStore.release_iteration

    def counting(self, iteration):
        held.append(len(self._frames))
        release_iteration(self, iteration)

    monkeypatch.setattr(StreamStore, "release_iteration", counting)
    rt = ThreadedRuntime(make_program(spec(), name="app"), default_registry(),
                         nodes=nodes, pipeline_depth=depth,
                         max_iterations=iterations)
    result = rt.run()
    assert result.completed_iterations == iterations
    assert result.reconfig_count > 0
    assert len(held) == iterations
    assert 1 <= max(held) <= depth
    assert rt.streams.live_iterations == 0
    assert rt.streams.total_live_slots() == 0


def test_a_store_stream_put_get_release_round_trips():
    """What ``benchmarks/e2e/layers.py`` times: one stream of a store
    with a pool, written, read and released per iteration on its own."""
    depth = 5
    store = StreamStore(SharedPlanePool(shared=False))
    stream = store.stream("bench")
    plane = np.zeros((8, 6), dtype=np.uint8)
    for i in range(3 * depth):
        stream.put(i, plane)
        assert stream.get(i) is plane
        stream.release(i)
        assert store.live_iterations == 0
    assert stream.stats == (3 * depth, 3 * depth)
    assert stream.live_slots == 0 and store.pool.total_planes == 0

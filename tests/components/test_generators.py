"""The test-pattern generators: today's output, from only the per-index work.

``synthetic_frame`` and ``synthetic_record`` feed every workload and
define the committed output digests, so each is held bit for bit to the
formula it replaced (kept verbatim below as the oracle), and its Python
calls per call are pinned so that per-frame ``mgrid``/``roll`` work
cannot come back unnoticed.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.components import video
from repro.components.audio import synthetic_record
from repro.components.video import synthetic_frame


def _reference_frame(index, width, height, *, seed=0, detail=0.5, motion=4):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    base = (xx * 0.7 + yy * 0.3) % 256
    texture = 32.0 * np.sin(xx / 7.0) * np.cos(yy / 11.0)
    noise = rng.normal(0.0, 24.0 * detail, size=(height, width))
    cyy, cxx = np.mgrid[0 : height // 2, 0 : width // 2]
    shift = (index * motion) % width
    y = np.roll(base + texture, shift, axis=1) + noise
    u = 128 + 40 * np.sin((cxx + index * motion) / 23.0)
    v = 128 + 40 * np.cos((cyy + index * motion) / 19.0)
    return (
        np.clip(y, 0, 255).astype(np.uint8),
        np.clip(u, 0, 255).astype(np.uint8),
        np.clip(v, 0, 255).astype(np.uint8),
    )


def _reference_record(index, channels, block, *, seed=0):
    t = (np.arange(block, dtype=np.float64) + index * block)
    rows = []
    for c in range(channels):
        freq = 0.01 + 0.002 * c + 0.0005 * (seed % 7)
        tone = np.sin(2.0 * np.pi * freq * t) * 12000.0
        rng = np.random.default_rng(seed * 1_000_003 + c * 101 + index)
        noise = rng.integers(-800, 800, size=block).astype(np.float64)
        rows.append(tone + noise)
    data = np.stack(rows)
    return np.clip(data, -32768, 32767).astype(np.int16)


def _assert_frame_equal(index, width, height, **style):
    frame = synthetic_frame(index, width, height, **style)
    for plane, expected in zip((frame.y, frame.u, frame.v),
                               _reference_frame(index, width, height, **style)):
        assert plane.dtype == expected.dtype
        assert np.array_equal(plane, expected), (index, width, height, style)


SIZES = [(720, 576), (360, 288), (320, 256), (16, 8)]


@pytest.mark.parametrize("width,height", SIZES)
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("detail", [0, 0.5, 1])
def test_frame_equals_reference(width, height, seed, detail):
    for index in range(20):
        _assert_frame_equal(index, width, height, seed=seed, detail=detail)


@pytest.mark.parametrize("width,height", SIZES)
def test_frame_scroll_edges_equal_reference(width, height):
    """Shift 0 (``index*motion`` a multiple of the width), the wrap past
    the width, and a scroll to the left."""
    motion = 4
    for index in (width // motion, 2 * width // motion,
                  width // motion + 1, 3 * width // motion - 1):
        _assert_frame_equal(index, width, height, seed=3, motion=motion)
    for index in (0, 1, 5, width, width + 3):
        _assert_frame_equal(index, width, height, seed=3, motion=-3)


@pytest.mark.parametrize("channels,block", [(8, 64), (3, 7), (1, 1)])
def test_record_equals_reference(channels, block):
    for seed in (0, 1, 7, 12):
        for index in (0, 1, 2, 19, 1000):
            record = synthetic_record(index, channels, block, seed=seed)
            expected = _reference_record(index, channels, block, seed=seed)
            assert record.dtype == np.int16
            assert np.array_equal(record, expected), (seed, index)


def test_frame_planes_are_fresh_and_writeable():
    first = synthetic_frame(5, 32, 16, seed=2)
    second = synthetic_frame(5, 32, 16, seed=2)
    for a, b in zip((first.y, first.u, first.v),
                    (second.y, second.u, second.v)):
        assert a.flags.writeable and a.flags.c_contiguous
        assert not np.shares_memory(a, b)
    expected = second.copy()
    first.y[:] = 0
    first.u[:] = 0
    first.v[:] = 0
    assert synthetic_frame(5, 32, 16, seed=2) == expected


def test_still_planes_are_read_only_and_bounded():
    pattern, noise = video._still_planes(32, 16, 2, 0.5)
    for plane in (pattern, noise):
        assert plane.dtype == np.float64 and plane.shape == (16, 32)
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[0, 0] = 1.0
    maxsize = video._still_planes.cache_info().maxsize
    assert maxsize == 8
    for seed in range(3 * maxsize):
        synthetic_frame(0, 16, 8, seed=seed)
    assert video._still_planes.cache_info().currsize == maxsize


def _profile_events(fn, *args, **kwargs) -> int:
    events = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    fn(*args, **kwargs)  # warm-up: the still planes and numpy's set-up
    # no collection inside the count: its callbacks and the finalizers
    # it runs would be counted as the function's calls
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events[0]


def test_frame_calls_do_not_grow_with_the_frame():
    calls = _profile_events(synthetic_frame, 7, 720, 576)
    assert calls == _profile_events(synthetic_frame, 7, 16, 8)
    assert calls <= 30


@pytest.mark.parametrize("channels", [1, 3, 8])
def test_record_calls_are_the_seeded_draws(channels):
    """One ``default_rng`` + ``integers`` per channel (the draws the
    digests depend on) and a fixed handful around them."""
    assert _profile_events(synthetic_record, 3, channels, 64,
                           seed=7) <= 15 * channels + 10

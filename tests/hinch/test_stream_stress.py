"""Concurrency stress for pool-backed streams.

The streams of an executor whose jobs run concurrently lock
(:class:`~repro.hinch.stream.LockedStream`, what
``ThreadedRuntime(nodes >= 2)`` gets); those are the ones raced here.
Sliced writers race on the shared whole-frame buffer while a full
``pipeline_depth`` of iterations is in flight; the result must be
bit-identical to a sequential fill, every slot must be released, and the
pool's working set must stay bounded by the pipeline depth.  Whole runs
on both real backends must hand every plane back.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.apps import build_blur, make_program
from repro.components.registry import default_registry
from repro.errors import StreamError
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.hinch.shm import SharedPlanePool
from repro.hinch.stream import LockedStream, Stream, StreamStore
from repro.spacecake import SimRuntime

ROWS, COLS, SLICES = 3, 17, 6
DEPTH, ITERS = 4, 40


def _expected(iteration: int) -> np.ndarray:
    out = np.empty((SLICES * ROWS, COLS), dtype=np.int32)
    for k in range(SLICES):
        out[k * ROWS:(k + 1) * ROWS, :] = iteration * 1000 + k
    return out


def test_sliced_writers_full_pipeline_bit_identical_to_sequential():
    pool = SharedPlanePool()
    store = StreamStore(pool, locked=True)
    stream = store.stream("frame")
    sem = threading.Semaphore(DEPTH)  # pipeline admission, like the scheduler
    ok: dict[int, bool] = {}

    def write_slice(iteration: int, k: int) -> None:
        buf = stream.ensure_buffer(
            iteration, shape=(SLICES * ROWS, COLS), dtype=np.int32
        )
        buf[k * ROWS:(k + 1) * ROWS, :] = iteration * 1000 + k

    def run_iteration(iteration: int) -> None:
        with sem:
            writers = [
                threading.Thread(target=write_slice, args=(iteration, k))
                for k in range(SLICES)
            ]
            for t in writers:
                t.start()
            for t in writers:
                t.join()
            # reader runs after every writer copy, as the scheduler orders
            got = stream.get(iteration)
            ok[iteration] = bool(np.array_equal(got, _expected(iteration)))
            store.release_iteration(iteration)

    threads = [
        threading.Thread(target=run_iteration, args=(it,))
        for it in range(ITERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()

    assert ok == {it: True for it in range(ITERS)}
    assert stream.stats == (ITERS * SLICES, ITERS)
    assert stream.live_slots == 0
    # every plane went back to the free list ...
    assert pool.live_planes == 0
    # ... and the working set converged to the pipeline depth: at most
    # DEPTH slots were ever live, so at most DEPTH planes exist
    assert pool.total_planes <= DEPTH


def test_put_is_write_once_under_contention():
    stream = LockedStream("s")
    n = 8
    barrier = threading.Barrier(n)
    wins: list[int] = []
    errors: list[int] = []
    lock = threading.Lock()

    def racer(i: int) -> None:
        barrier.wait()
        try:
            stream.put(0, i)
            with lock:
                wins.append(i)
        except StreamError:
            with lock:
                errors.append(i)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(wins) == 1
    assert len(errors) == n - 1
    assert stream.get(0) == wins[0]


def test_ensure_buffer_allocates_exactly_once_under_contention():
    pool = SharedPlanePool()
    stream = LockedStream("s", pool)
    n = 16
    barrier = threading.Barrier(n)
    buffers: list[np.ndarray] = []
    lock = threading.Lock()

    def racer() -> None:
        barrier.wait()
        buf = stream.ensure_buffer(0, shape=(8, 8), dtype=np.uint8)
        with lock:
            buffers.append(buf)

    threads = [threading.Thread(target=racer) for _ in range(n)]
    # switch threads as often as possible: without the stream's lock,
    # copies interleave between the slot check and the allocation
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(buffers) == n
    assert pool.stats.acquires == 1  # one plane, shared by every copy
    assert all(b is buffers[0] for b in buffers)


def test_concurrent_release_returns_plane_exactly_once():
    pool = SharedPlanePool()
    stream = LockedStream("s", pool)
    stream.ensure_buffer(0, shape=(8, 8), dtype=np.uint8)
    n = 8
    barrier = threading.Barrier(n)

    def racer() -> None:
        barrier.wait()
        stream.release(0)

    threads = [threading.Thread(target=racer) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    # a double release would corrupt the free list (the same plane handed
    # out twice); the slot pop makes release idempotent instead
    assert pool.stats.released == 1
    assert pool.live_planes == 0


@pytest.mark.parametrize("runtime_cls, width, expected", [
    # 2 sliced streams x 8 iterations, planes recycled at depth 3
    pytest.param(ThreadedRuntime, "nodes",
                 {"planes_created": 3, "acquires": 16, "released": 16,
                  "recycled": 13}, id="threaded"),
    # plus the dispatcher's Packed transport values, released by the sweep
    pytest.param(ProcessRuntime, "workers",
                 {"planes_created": 6, "acquires": 24, "released": 24,
                  "recycled": 18}, id="process"),
])
def test_release_sweep_returns_every_plane(runtime_cls, width, expected):
    """The per-iteration release sweep hands back exactly what the
    sliced writers and the transport acquired — counts pinned at one
    worker, where the order (and so recycling) is deterministic."""
    program = make_program(build_blur(5, width=48, height=36, slices=3),
                           name="blur5")
    rt = runtime_cls(program, default_registry(), pipeline_depth=3,
                     max_iterations=8, **{width: 1})
    stats = rt.run().pool_stats
    assert {key: stats[key] for key in expected} == expected
    assert rt.pool.live_planes == 0


def test_sliced_write_after_put_still_raises_with_pool():
    pool = SharedPlanePool()
    stream = Stream("s", pool)
    stream.put(0, np.zeros(4))
    with pytest.raises(StreamError, match="after finalizing"):
        stream.ensure_buffer(0, shape=(4,), dtype=np.float64)


@pytest.mark.parametrize("runtime_cls, kwargs, locked", [
    pytest.param(ThreadedRuntime, {"nodes": 1}, False, id="threaded-1"),
    pytest.param(ThreadedRuntime, {"nodes": 2}, True, id="threaded-2"),
    pytest.param(ProcessRuntime, {"workers": 2}, False, id="process-2"),
    pytest.param(SimRuntime, {"nodes": 2, "execute": True}, False,
                 id="sim-2"),
])
def test_only_an_executor_with_concurrent_jobs_locks_its_streams(
        runtime_cls, kwargs, locked):
    """Worker threads run jobs at once; the inline loop, the process
    dispatcher and the simulator run one at a time and take no lock."""
    program = make_program(build_blur(3, width=48, height=36, slices=3),
                           name="blur3")
    rt = runtime_cls(program, default_registry(), pipeline_depth=2,
                     max_iterations=3, **kwargs)
    assert rt.run().completed_iterations == 3
    kinds = {type(rt.streams.stream(name)) for name in rt.streams.names}
    assert kinds == {LockedStream if locked else Stream}

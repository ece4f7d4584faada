"""Concurrency stress for recycling streams.

The streams of an executor whose jobs run concurrently lock
(:class:`~repro.hinch.stream.LockedStream`, what
``ThreadedRuntime(nodes >= 2)`` gets); those are the ones raced here.
Sliced writers race on the shared whole-frame buffer while a full
``pipeline_depth`` of iterations is in flight; the result must be
bit-identical to a sequential fill and every slot must be released.
Whole runs must hand every buffer back: threads to each stream's spare
list, processes to the shared-memory plane pool.
"""

from __future__ import annotations

import collections
import sys
import threading

import numpy as np
import pytest

from repro.apps import build_blur, build_jpip, build_pip, make_program
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
    store = StreamStore(locked=True)
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
    # every iteration's frame was retired, every buffer went back to the
    # stream's spare list, and the working set converged to the pipeline
    # depth: at most DEPTH frames were ever live, so at most DEPTH arrays
    # exist
    assert store._frames == {}
    assert 1 <= len(stream._spare) <= DEPTH


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
    stream = LockedStream("s")
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
    assert all(b is buffers[0] for b in buffers)
    # one stream-owned array, shared by every copy, recorded once in the
    # iteration's frame with the stream's spare list: the release
    # recycles it and drops the emptied frame
    values, recycle = stream._frames[0]
    assert list(stream._frames) == [0]
    assert values == {"s": buffers[0]}
    assert list(recycle) == ["s"] and recycle["s"] is stream._spare
    stream.release(0)
    assert len(stream._spare) == 1 and stream._spare[0] is buffers[0]
    assert stream._frames == {}


def test_concurrent_release_returns_plane_exactly_once():
    stream = LockedStream("s")
    buffer = stream.ensure_buffer(0, shape=(8, 8), dtype=np.uint8)
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
    # a double release would put the array on the spare list twice (the
    # same buffer handed to two iterations); the slot pop makes release
    # idempotent instead
    assert len(stream._spare) == 1 and stream._spare[0] is buffer
    assert stream.live_slots == 0 and stream._frames == {}


def test_first_writes_of_an_iteration_share_one_frame():
    """Streams written on different threads race to create an
    iteration's frame; the store's lock makes them share one, so no
    stream's value is lost to a second, overwriting frame."""
    store = StreamStore(locked=True)
    n, iterations = 8, 300
    streams = [store.stream(f"s{i}") for i in range(n)]
    barrier = threading.Barrier(n)

    def writer(i: int) -> None:
        for k in range(iterations):
            barrier.wait()
            streams[i].put(k, (i, k))

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert store.live_iterations == iterations
    assert store.total_live_slots() == n * iterations
    assert all(s.get(k) == (i, k)
               for i, s in enumerate(streams) for k in range(iterations))
    for k in range(iterations):
        store.release_iteration(k)
    assert store.live_iterations == 0


def _handed_out(monkeypatch) -> dict[str, list[np.ndarray]]:
    """Record, per stream, every distinct array ``ensure_buffer`` returns."""
    handed: dict[str, list[np.ndarray]] = collections.defaultdict(list)
    ensure_buffer = Stream.ensure_buffer

    def recording(stream, *args, **kwargs):
        buffer = ensure_buffer(stream, *args, **kwargs)
        if all(buffer is not b for b in handed[stream.name]):
            handed[stream.name].append(buffer)
        return buffer

    monkeypatch.setattr(Stream, "ensure_buffer", recording)
    return handed


@pytest.mark.parametrize("runtime_cls, width, expected", [
    # 2 sliced streams x 8 iterations at depth 3: every array a sliced
    # writer got ends on its stream's spare list, and no pool exists
    pytest.param(ThreadedRuntime, "nodes", {"mid5": 2, "out": 1},
                 id="threaded"),
    # plus the dispatcher's Packed transport values, released by the
    # sweep; a lease speculating up to three jobs ahead keeps one more
    # plane in flight
    pytest.param(ProcessRuntime, "workers",
                 {"planes_created": 7, "acquires": 24, "released": 24,
                  "recycled": 17}, id="process"),
])
def test_release_sweep_returns_every_plane(runtime_cls, width, expected,
                                          monkeypatch):
    """The per-iteration release sweep hands back exactly what the
    sliced writers and the transport acquired — counts pinned at one
    worker, where the order (and so recycling) is deterministic."""
    program = make_program(build_blur(5, width=48, height=36, slices=3),
                           name="blur5")
    rt = runtime_cls(program, default_registry(), pipeline_depth=3,
                     max_iterations=8, **{width: 1})
    if runtime_cls is ThreadedRuntime:
        handed = _handed_out(monkeypatch)
        assert rt.run().pool_stats == {} and rt.pool is None
        assert rt.streams.total_live_slots() == 0
        assert rt.streams._frames == {}
        spares = {name: rt.streams.stream(name)._spare for name in handed}
        assert {name: len(s) for name, s in spares.items()} == expected
        for name, arrays in handed.items():
            assert all(any(a is b for b in spares[name]) for a in arrays)
        return
    stats = rt.run().pool_stats
    assert {key: stats[key] for key in expected} == expected
    assert rt.pool.live_planes == 0


@pytest.mark.parametrize("spec", [
    pytest.param(build_blur(5, width=48, height=36, slices=3), id="blur5"),
    pytest.param(build_pip(2, width=64, height=48, slices=4, frames=4,
                           reconfigurable=True, period=6), id="pip2-reconf"),
    pytest.param(build_jpip(1, width=64, height=48, pip_height=48, factor=4,
                            slices=3, frames=2), id="jpip1"),
])
def test_a_sliced_stream_hands_out_at_most_depth_arrays(spec, monkeypatch):
    """Recycled through its spare list, a stream allocates at most one
    array per live iteration over a whole run, splices included."""
    handed = _handed_out(monkeypatch)
    rt = ThreadedRuntime(make_program(spec, name="app"), default_registry(),
                         nodes=1, pipeline_depth=3, max_iterations=40)
    assert rt.run().completed_iterations == 40
    assert handed
    assert {name: len(a) for name, a in handed.items() if len(a) > 3} == {}


@pytest.mark.parametrize("iterations", [12, 48])
def test_blur35_toggles_reuse_one_set_of_arrays(iterations, monkeypatch):
    """A stream a splice disables keeps its spares for the next toggle
    back: Blur-35 holds one fixed set of arrays however often it
    toggles (2 reconfigurations at 12 iterations, 8 at 48)."""
    handed = _handed_out(monkeypatch)
    spec = build_blur(3, width=48, height=36, slices=3, reconfigurable=True,
                      period=6)
    rt = ThreadedRuntime(make_program(spec, name="blur35"),
                         default_registry(), nodes=1, pipeline_depth=3,
                         max_iterations=iterations)
    assert rt.run().reconfig_count == iterations // 6
    assert {name: len(a) for name, a in handed.items()} == {
        "mid3": 3, "mid5": 3, "out": 2}
    for name, arrays in handed.items():
        spare = rt.streams.stream(name)._spare
        assert len(spare) == len(arrays)
        assert all(any(a is b for b in spare) for a in arrays)


@pytest.mark.parametrize("runtime_cls, kwargs", [
    pytest.param(ThreadedRuntime, {"nodes": 1}, id="threaded-1"),
    pytest.param(ThreadedRuntime, {"nodes": 4}, id="threaded-4"),
    pytest.param(SimRuntime, {"nodes": 2, "execute": True}, id="sim-2"),
])
def test_no_in_process_executor_builds_a_plane_pool(runtime_cls, kwargs,
                                                     monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("SharedPlanePool constructed")

    monkeypatch.setattr(SharedPlanePool, "__init__", refuse)
    program = make_program(build_blur(3, width=48, height=36, slices=3),
                           name="blur3")
    rt = runtime_cls(program, default_registry(), pipeline_depth=2,
                     max_iterations=3, **kwargs)
    assert rt.run().completed_iterations == 3


def test_sliced_write_after_put_still_raises_with_pool():
    pool = SharedPlanePool()
    stream = StreamStore(pool).stream("s")
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

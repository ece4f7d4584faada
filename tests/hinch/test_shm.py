"""Unit tests for the shared plane pool (allocation, recycling, transport).

The serialization-counting tests here back the PR's hot-path claim: pixel
data crosses process boundaries as plane descriptors, never as pickle
bytes.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.errors import StreamError
from repro.hinch.shm import PlaneRef, SharedPlanePool, _round_size, plane_nbytes


# -- payload size -----------------------------------------------------------


@pytest.mark.parametrize(
    "shape,dtype,nbytes",
    [
        ((), np.float64, 8),          # a scalar plane is one item
        ((0,), np.uint8, 0),
        ((4, 0, 3), np.int16, 0),     # any zero extent: no payload
        ((4, 6), np.uint8, 24),
        ((576, 720), np.float32, 576 * 720 * 4),
        ((np.int64(3), np.int32(5)), np.int16, 30),  # numpy ints from .shape math
    ],
)
def test_plane_nbytes(shape, dtype, nbytes):
    got = plane_nbytes(shape, np.dtype(dtype))
    assert got == nbytes == np.empty(shape, dtype).nbytes


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_acquire_zero_sized_planes(shape):
    with SharedPlanePool(shared=False) as pool:
        plane, ref = pool.acquire(shape, np.float32)
        assert ref.nbytes == 0 and plane.shape == shape
        pool.release(ref)
        assert pool.live_planes == 0


# -- size bucketing ---------------------------------------------------------


def test_round_size_small_payloads_share_min_bucket():
    assert _round_size(1) == 4096
    assert _round_size(4096) == 4096


def test_round_size_power_of_two_buckets():
    assert _round_size(4097) == 8192
    assert _round_size(8192) == 8192
    assert _round_size(720 * 576) == 1 << 19


# -- acquire / release / recycle -------------------------------------------


def test_acquire_returns_writable_view_of_right_geometry():
    with SharedPlanePool() as pool:
        plane, ref = pool.acquire((4, 6), np.uint8)
        assert plane.shape == (4, 6)
        assert plane.dtype == np.uint8
        plane[...] = 7
        assert ref.nbytes == 24
        assert np.array_equal(pool.open(ref), plane)


def test_release_recycles_same_bucket():
    with SharedPlanePool() as pool:
        _, ref = pool.acquire((8, 8), np.uint8)
        pool.release(ref)
        _, ref2 = pool.acquire((7, 9), np.uint8)  # same 4096 bucket
        assert ref2.segment == ref.segment
        assert pool.stats.recycled == 1
        assert pool.stats.planes_created == 1


def test_release_is_idempotent_for_unknown_segments():
    with SharedPlanePool() as pool:
        pool.release(PlaneRef(segment="nope", nbytes=16))
        assert pool.stats.released == 0


def test_working_set_converges_under_steady_state():
    """acquire/release cycling must stop allocating — the pipeline_depth
    memory bound of the paper."""
    with SharedPlanePool() as pool:
        for _ in range(50):
            _, ref = pool.acquire((32, 32), np.uint8)
            pool.release(ref)
        assert pool.total_planes == 1
        assert pool.live_planes == 0
        assert pool.stats.recycled == 49


def test_acquire_after_close_raises():
    pool = SharedPlanePool()
    pool.close()
    with pytest.raises(StreamError):
        pool.acquire((2, 2), np.uint8)


# -- pack / unpack ----------------------------------------------------------


def test_pack_contiguous_ndarray_never_pickles():
    """The acceptance criterion: a frame plane crosses as a bare plane
    descriptor with zero pickle bytes produced."""
    with SharedPlanePool() as pool:
        frame = np.arange(720 * 576, dtype=np.uint8).reshape(576, 720)
        packed = pool.pack(frame)
        assert packed.kind == "plane"
        assert pool.stats.plane_packs == 1
        assert pool.stats.pickle_packs == 0
        assert pool.stats.meta_pickled_bytes == 0
        assert pool.stats.oob_bytes == frame.nbytes
        assert np.array_equal(pool.unpack(packed), frame)


def test_unpack_plane_is_a_view_not_a_copy():
    with SharedPlanePool() as pool:
        packed = pool.pack(np.zeros((16, 16), dtype=np.uint8))
        view = pool.unpack(packed)
        pool.open(packed.refs[0])[0, 0] = 99
        assert view[0, 0] == 99


def test_pack_object_exports_arrays_out_of_band():
    """pickle5 path: scaffolding stays tiny no matter the frame size."""
    with SharedPlanePool() as pool:
        value = {
            "y": np.arange(256 * 256, dtype=np.uint8).reshape(256, 256),
            "label": "frame-7",
        }
        packed = pool.pack(value)
        assert packed.kind == "pickle5"
        assert pool.stats.pickle_packs == 1
        # the 64 KiB of pixels moved by memcpy, not through pickle
        assert pool.stats.oob_bytes >= 256 * 256
        assert pool.stats.meta_pickled_bytes == len(packed.meta)
        assert len(packed.meta) < 2048
        out = pool.unpack(packed)
        assert out["label"] == "frame-7"
        assert np.array_equal(out["y"], value["y"])


def test_pack_noncontiguous_array_roundtrips():
    with SharedPlanePool() as pool:
        base = np.arange(100, dtype=np.int32).reshape(10, 10)
        strided = base[::2, ::2]
        packed = pool.pack(strided)
        assert np.array_equal(pool.unpack(packed), strided)


def test_release_packed_frees_every_plane():
    with SharedPlanePool() as pool:
        packed = pool.pack(
            {"a": np.zeros(5000, dtype=np.uint8),
             "b": np.ones(6000, dtype=np.uint8)}
        )
        assert pool.live_planes == len(packed.refs) >= 2
        pool.release_packed(packed)
        assert pool.live_planes == 0


def test_release_packed_ignores_plain_values():
    with SharedPlanePool() as pool:
        pool.release_packed("not packed")
        assert pool.stats.released == 0


def test_pack_plane_wraps_without_copy():
    with SharedPlanePool() as pool:
        plane, ref = pool.acquire((3, 3), np.uint8)
        plane[...] = 5
        packed = pool.pack_plane(ref)
        assert packed.kind == "plane"
        assert pool.stats.oob_bytes == 0  # no memcpy happened
        assert np.array_equal(pool.unpack(packed), plane)


# -- shared-memory mode -----------------------------------------------------


def _child_reads_and_writes(conn):
    pool = SharedPlanePool(shared=True)  # attacher: owns no segments
    try:
        packed = conn.recv()
        frame = pool.unpack(packed)
        conn.send(int(frame.sum()))
        frame[0, 0] = 42  # visible to the parent: same physical plane
        conn.send("done")
    finally:
        pool.close_attachments()
        conn.close()


def test_shared_plane_visible_across_fork():
    ctx = multiprocessing.get_context("fork")
    with SharedPlanePool(shared=True) as pool:
        frame = np.full((64, 64), 3, dtype=np.uint8)
        packed = pool.pack(frame)
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_child_reads_and_writes, args=(child,))
        proc.start()
        child.close()
        parent.send(packed)
        assert parent.recv() == 64 * 64 * 3
        assert parent.recv() == "done"
        proc.join(timeout=10)
        # the child's in-place write landed in the parent's plane
        assert pool.open(packed.refs[0])[0, 0] == 42


def test_plane_ref_pickles_small():
    """What actually crosses the pipe is a descriptor, not pixels."""
    import pickle

    with SharedPlanePool(shared=True) as pool:
        packed = pool.pack(np.zeros((576, 720), dtype=np.uint8))
        wire = pickle.dumps(packed)
        assert len(wire) < 512


def test_shared_close_unlinks_segments():
    pool = SharedPlanePool(shared=True)
    _, ref = pool.acquire((8, 8), np.uint8)
    pool.close()
    attacher = SharedPlanePool(shared=True)
    with pytest.raises(FileNotFoundError):
        attacher.open(ref)

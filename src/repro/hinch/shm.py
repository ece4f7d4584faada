"""Recycled plane buffers and zero-copy frame transport.

The paper bounds stream memory to one slot per in-flight iteration
(``pipeline_depth`` of them); this module gives that bound a concrete
allocator across processes (in one process, each stream recycles its
own buffers).  A :class:`SharedPlanePool` owns fixed-size *planes* —
flat byte buffers sized for a frame plane — recycled through free lists
keyed by byte size.  Because stream slots are released every completed
iteration, the pool's working set converges to
``streams x pipeline_depth`` planes and then stops allocating entirely.

Two backing modes:

* ``shared=True`` — each plane is a :class:`multiprocessing.shared_memory`
  segment, mappable by name from any process.  This is the transport of
  :class:`~repro.hinch.process.ProcessRuntime`: workers write pixel rows
  straight into the mapped plane and only a tiny :class:`PlaneRef`
  descriptor ever crosses the control pipe.
* ``shared=False`` — planes are ordinary ``bytearray`` buffers.  No
  executor uses this mode (threads and the simulator recycle sliced
  buffers per stream, :class:`~repro.hinch.stream.Stream`); the unit
  tests and the benchmark's layer probes exercise the pool through it.

Cross-process values that are not bare planes (JPEG bitstreams,
coefficient blocks, whole ``Frame`` objects) travel as :class:`Packed`
messages built with pickle protocol 5: every contiguous numpy array is
exported *out of band* into a pool plane, so the pickled metadata stays
a few hundred bytes no matter the frame size — pixel data is never
serialized on the stream hot path.  The pool counts both flows
(:attr:`SharedPlanePool.stats`), which is what the serialization tests
assert on.

Control-pipe messages themselves (leases, job records, RPCs) are plain
protocol-5 pickles, one ``send_bytes`` each (:func:`send_framed`); their
pickled bytes are counted in the same stats.
"""

from __future__ import annotations

import math
import pickle
import signal
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import StreamError

__all__ = [
    "PlaneRef",
    "Packed",
    "SharedPlanePool",
    "PoolStats",
    "plane_nbytes",
    "recv_framed",
    "send_framed",
]


@dataclass(frozen=True, slots=True)
class PlaneRef:
    """Descriptor of one pool plane: everything a process needs to map it.

    ``segment`` is the shared-memory name (``shared=True``) or the pool's
    local buffer id (``shared=False``); ``nbytes`` is the payload size —
    the backing segment may be larger (size-bucketed recycling).
    """

    segment: str
    nbytes: int
    shape: tuple[int, ...] = ()
    dtype: str = "uint8"


@dataclass(frozen=True, slots=True)
class Packed:
    """A stream value in transportable form.

    ``kind`` is ``"plane"`` (a bare ndarray living in ``refs[0]``) or
    ``"pickle5"`` (``meta`` holds the protocol-5 scaffolding whose
    out-of-band buffers live in ``refs``, in pickling order).
    """

    kind: str
    refs: tuple[PlaneRef, ...]
    meta: bytes = b""
    nbytes: int = 0


@dataclass
class PoolStats:
    """Allocation and serialization accounting (tests assert on these)."""

    planes_created: int = 0
    acquires: int = 0
    recycled: int = 0
    released: int = 0
    #: bytes of pickled metadata: :meth:`SharedPlanePool.pack` scaffolding
    #: plus every control-pipe message this side serialized (leases, done
    #: records, RPCs); planes and out-of-band arrays bypass pickle
    meta_pickled_bytes: int = 0
    #: bytes moved out-of-band into planes by pack() (memcpy, not pickle)
    oob_bytes: int = 0
    #: ndarray values packed without any pickling at all
    plane_packs: int = 0
    pickle_packs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def send_framed(conn: Any, msg: Any, stats: PoolStats) -> None:
    """Send one control-pipe message: a plain protocol-5 pickle.

    The pickled length lands in :attr:`PoolStats.meta_pickled_bytes`;
    summed over dispatcher and workers, it is the run's whole
    control-plane pickle volume.
    """
    data = pickle.dumps(msg, protocol=5)
    stats.meta_pickled_bytes += len(data)
    conn.send_bytes(data)


def recv_framed(conn: Any) -> Any:
    """Receive one message sent by :func:`send_framed`."""
    return pickle.loads(conn.recv_bytes())


def plane_nbytes(shape: tuple[int, ...], dtype: np.dtype) -> int:
    """Payload bytes of a ``shape``/``dtype`` plane; ``()`` is one scalar."""
    return math.prod(shape) * dtype.itemsize


def _round_size(nbytes: int) -> int:
    """Bucket a payload size so near-miss shapes still recycle planes."""
    if nbytes <= 4096:
        return 4096
    # next power-of-two bucket: a 720x576 Y plane and its padded cousin
    # share a bucket instead of fragmenting the free lists
    return 1 << (nbytes - 1).bit_length()


class SharedPlanePool:
    """Recycled byte planes, optionally backed by shared memory.

    The pool has an *owner* process (the one that creates planes and runs
    the free lists) and, in shared mode, any number of *attacher*
    processes that only :meth:`open` planes by descriptor.  Workers never
    allocate directly — they ask the dispatcher over the control pipe,
    which keeps the free lists single-threaded.
    """

    #: pickle protocol for pack(): 5 gives out-of-band buffer export
    PROTOCOL = 5

    def __init__(self, *, shared: bool = False, name_prefix: str = "xspcl") -> None:
        self.shared = shared
        self.name_prefix = name_prefix
        self.stats = PoolStats()
        self._seq = 0
        #: bucket size -> list of free segment names
        self._free: dict[int, list[str]] = {}
        #: segment name -> (buffer object, bucket size); owner process only
        self._segments: dict[str, tuple[Any, int]] = {}
        #: every shared segment this pool created, kept past close(): the
        #: names a leak check may charge to it (attachers create none)
        self.created: list[str] = []
        #: attacher-side map of opened shared segments (kept mapped until
        #: close_attachments(): views handed to components must stay valid)
        self._attached: dict[str, Any] = {}
        self._closed = False

    # -- owner API ---------------------------------------------------------

    def acquire(self, shape: tuple[int, ...], dtype: Any) -> tuple[np.ndarray, PlaneRef]:
        """A writable plane for ``shape``/``dtype``: recycled or fresh."""
        dt = np.dtype(dtype)
        nbytes = plane_nbytes(shape, dt)
        name = self._take(nbytes)
        ref = PlaneRef(segment=name, nbytes=nbytes, shape=tuple(shape),
                       dtype=dt.str)
        return self.open(ref), ref

    def acquire_raw(self, nbytes: int) -> PlaneRef:
        """A plane for ``nbytes`` of raw bytes (pack()'s out-of-band path)."""
        return PlaneRef(segment=self._take(nbytes), nbytes=nbytes)

    def _take(self, nbytes: int) -> str:
        """Segment name of a plane for ``nbytes``: recycled or fresh."""
        if self._closed:
            raise StreamError("plane pool is closed")
        bucket = _round_size(nbytes)
        self.stats.acquires += 1
        free = self._free.get(bucket)
        if free:
            self.stats.recycled += 1
            return free.pop()
        return self._create(bucket)

    def release(self, ref: PlaneRef) -> None:
        """Return a plane to the free list (owner process, idempotent-safe)."""
        entry = self._segments.get(ref.segment)
        if entry is None:
            return  # not ours (already unlinked at shutdown)
        _, bucket = entry
        self.stats.released += 1
        self._free.setdefault(bucket, []).append(ref.segment)

    def release_packed(self, value: Any) -> None:
        """Release every plane referenced by a :class:`Packed` slot value."""
        if isinstance(value, Packed):
            for ref in value.refs:
                self.release(ref)

    @property
    def live_planes(self) -> int:
        """Planes currently checked out (created minus free)."""
        return len(self._segments) - sum(len(v) for v in self._free.values())

    @property
    def total_planes(self) -> int:
        return len(self._segments)

    # -- mapping ------------------------------------------------------------

    def open(self, ref: PlaneRef) -> np.ndarray:
        """Map a plane as an ndarray (any process, zero copy)."""
        shape = ref.shape if ref.shape else (ref.nbytes,)
        return np.ndarray(shape, dtype=np.dtype(ref.dtype),
                          buffer=self._buffer(ref.segment))

    def open_raw(self, ref: PlaneRef) -> memoryview:
        """Map a plane's payload bytes (any process, zero copy)."""
        return memoryview(self._buffer(ref.segment))[: ref.nbytes]

    def _buffer(self, name: str):
        entry = self._segments.get(name)
        if entry is not None:
            seg, _ = entry
            return seg.buf if self.shared else seg
        if not self.shared:
            raise StreamError(f"unknown local plane {name!r}")
        seg = self._attached.get(name)
        if seg is None:
            seg = self._attach(name)
            self._attached[name] = seg
        return seg.buf

    def _create(self, bucket: int) -> str:
        self._seq += 1
        self.stats.planes_created += 1
        if not self.shared:
            name = f"{self.name_prefix}-{self._seq}"
            self._segments[name] = (bytearray(bucket), bucket)
            return name
        from multiprocessing import resource_tracker, shared_memory

        # An interrupt between shm_open and the record below would leave
        # a segment neither the pool nor the tracker knows, so SIGINT and
        # SIGTERM wait until the segment is recorded.  The tracker starts
        # first: starting it unblocks both signals.
        resource_tracker.ensure_running()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      {signal.SIGINT, signal.SIGTERM})
        try:
            seg = shared_memory.SharedMemory(create=True, size=bucket)
            self._segments[seg.name] = (seg, bucket)
            self.created.append(seg.name)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return seg.name

    @staticmethod
    def _attach(name: str):
        from multiprocessing import shared_memory

        # Only the owner may unlink.  Attaching registers the segment with
        # the resource tracker, which under fork is *shared* with the owner
        # — a later attacher-side unregister would erase the owner's claim
        # and crash the tracker at unlink time.  Suppress registration for
        # the attach instead (what track=False does on newer interpreters).
        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - track= needs Python 3.13
            pass
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig

    # -- transport ------------------------------------------------------------

    def pack(self, value: Any) -> Packed:
        """Make ``value`` transportable without serializing bulk data.

        A contiguous ndarray becomes a bare plane (one memcpy, zero
        pickling).  Anything else is pickled at protocol 5 with every
        contiguous array exported out-of-band into planes; only the
        object scaffolding lands in ``meta``.
        """
        if isinstance(value, np.ndarray) and value.flags.c_contiguous:
            plane, ref = self.acquire(value.shape, value.dtype)
            plane[...] = value
            self.stats.plane_packs += 1
            self.stats.oob_bytes += value.nbytes
            return Packed(kind="plane", refs=(ref,), nbytes=value.nbytes)

        buffers: list[pickle.PickleBuffer] = []
        meta = pickle.dumps(value, protocol=self.PROTOCOL,
                            buffer_callback=buffers.append)
        refs = []
        total = 0
        for pb in buffers:
            raw = pb.raw()
            ref = self.acquire_raw(raw.nbytes)
            self.open_raw(ref)[:] = raw
            refs.append(ref)
            total += raw.nbytes
        self.stats.pickle_packs += 1
        self.stats.meta_pickled_bytes += len(meta)
        self.stats.oob_bytes += total
        return Packed(kind="pickle5", refs=tuple(refs), meta=meta,
                      nbytes=total + len(meta))

    def pack_plane(self, ref: PlaneRef) -> Packed:
        """Wrap an already-written pool plane (the sliced-writer path)."""
        self.stats.plane_packs += 1
        return Packed(kind="plane", refs=(ref,), nbytes=ref.nbytes)

    def unpack(self, packed: Packed) -> Any:
        """Rebuild the value; ndarray results are views into the plane."""
        if packed.kind == "plane":
            return self.open(packed.refs[0])
        buffers = [self.open_raw(ref) for ref in packed.refs]
        return pickle.loads(packed.meta, buffers=buffers)

    # -- lifecycle -----------------------------------------------------------

    def close_attachments(self) -> None:
        """Unmap attacher-side segments (worker shutdown)."""
        for seg in self._attached.values():
            try:
                seg.close()
            except Exception:
                pass
        self._attached.clear()

    def close(self) -> None:
        """Free every plane (owner).  Shared segments are unlinked."""
        if self._closed:
            return
        self._closed = True
        self.close_attachments()
        for seg, _ in self._segments.values():
            if self.shared:
                try:
                    seg.close()
                    seg.unlink()
                except Exception:
                    pass
        self._segments.clear()
        self._free.clear()

    def __enter__(self) -> "SharedPlanePool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: tests create many pools
        try:
            self.close()
        except Exception:
            pass

"""Recycled plane buffers and zero-copy frame transport.

The paper bounds stream memory to one slot per in-flight iteration
(``pipeline_depth`` of them); this module gives that bound a concrete
allocator.  A :class:`SharedPlanePool` owns fixed-size *planes* —
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
* ``shared=False`` — planes are ordinary ``bytearray`` buffers.  The
  threaded runtime uses this mode purely for recycling, killing the
  per-iteration ``np.empty`` allocation of sliced writers.

Cross-process values that are not bare planes (JPEG bitstreams,
coefficient blocks, whole ``Frame`` objects) travel as :class:`Packed`
messages built with pickle protocol 5: every contiguous numpy array is
exported *out of band* into a pool plane, so the pickled metadata stays
a few hundred bytes no matter the frame size — pixel data is never
serialized on the stream hot path.  The pool counts both flows
(:attr:`SharedPlanePool.stats`), which is what the serialization tests
assert on.
"""

from __future__ import annotations

import io
import math
import pickle
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.errors import StreamError

__all__ = [
    "PlaneRef",
    "Packed",
    "SharedPlanePool",
    "PoolStats",
    "NameInterner",
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
    #: records, RPCs).  Planes and out-of-band arrays bypass pickle, and
    #: :class:`NameInterner` shrinks the repeated stream/node name strings
    #: — this counter is where that reduction shows up.
    meta_pickled_bytes: int = 0
    #: bytes moved out-of-band into planes by pack() (memcpy, not pickle)
    oob_bytes: int = 0
    #: ndarray values packed without any pickling at all
    plane_packs: int = 0
    pickle_packs: int = 0
    #: free-list planes handed out as dispatch-time grants
    #: (:meth:`SharedPlanePool.try_acquire_free`) — a grant consumed by a
    #: worker replaces one alloc RPC round-trip on the control pipe
    granted: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _InternPickler(pickle.Pickler):
    """Protocol-5 pickler replacing table strings with small int codes."""

    def __init__(self, file: io.BytesIO, codes: dict[str, int]) -> None:
        super().__init__(file, protocol=5)
        self._codes = codes

    def persistent_id(self, obj: Any) -> int | None:
        # Exact-type check: str subclasses may carry state a code loses.
        if type(obj) is str:
            return self._codes.get(obj)
        return None


class _InternUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, table: list[str]) -> None:
        super().__init__(file)
        self._table = table

    def persistent_load(self, pid: Any) -> str:
        return self._table[pid]


class NameInterner:
    """String interning for control-pipe pickles.

    Lease entries and done records repeat the same node ids and resolved
    stream names every iteration — on JPiP that is tens of kilobytes of
    identical strings per run.  Both pipe ends derive the *same* table
    from the current program graph (:meth:`names_of` is deterministic:
    sorted node ids, member instance ids, stream names and aliases), so a
    table string pickles as a 2–3 byte persistent-id code instead of its
    UTF-8 bytes plus framing.

    The table is rebuilt from the new graph on both sides of a
    reconfiguration splice.  Splices happen at quiescence over FIFO pipes
    — no steady-state message is ever in flight across a table swap — and
    the splice/control messages themselves are encoded *without*
    interning (an empty-table interner decodes them on any side).
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self.set_table(names)

    def set_table(self, names: Iterable[str]) -> None:
        table = sorted(set(names))
        self._table = table
        self._codes = {name: code for code, name in enumerate(table)}

    @property
    def table(self) -> list[str]:
        return list(self._table)

    @staticmethod
    def names_of(pg: Any) -> list[str]:
        """Deterministic intern table for a program graph (both pipe ends)."""
        names: set[str] = set()
        for node in pg.graph:
            names.add(node.node_id)
            for member in node.members:
                instance_id = getattr(member, "instance_id", None)
                if isinstance(instance_id, str):
                    names.add(instance_id)
        names.update(pg.streams)
        names.update(pg.aliases)
        names.update(pg.aliases.values())
        return sorted(names)

    def dumps(self, obj: Any) -> bytes:
        buf = io.BytesIO()
        _InternPickler(buf, self._codes).dump(obj)
        return buf.getvalue()

    def loads(self, data: bytes) -> Any:
        return _InternUnpickler(io.BytesIO(data), self._table).load()


#: empty-table coder for control messages (decodes them on any side)
_PLAIN = NameInterner()


def send_framed(
    conn: Any,
    msg: Any,
    interner: NameInterner,
    stats: PoolStats,
    *,
    interned: bool = True,
) -> None:
    """Send one control-pipe message (both pipe ends use this framing).

    A leading byte selects the coder: ``\\x01`` for ``interner``
    (leases, records, RPCs), ``\\x00`` for a plain pickle (control
    messages, readable across a table swap).  The framed length lands in
    :attr:`PoolStats.meta_pickled_bytes`; summed over dispatcher and
    workers, it is the run's whole control-plane pickle volume.
    """
    data = (interner if interned else _PLAIN).dumps(msg)
    stats.meta_pickled_bytes += len(data) + 1
    conn.send_bytes((b"\x01" if interned else b"\x00") + data)


def recv_framed(conn: Any, interner: NameInterner) -> Any:
    """Receive one message framed by :func:`send_framed`."""
    raw = conn.recv_bytes()
    return (interner if raw[:1] == b"\x01" else _PLAIN).loads(raw[1:])


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
        #: attacher-side map of opened shared segments (kept mapped until
        #: close_attachments(): views handed to components must stay valid)
        self._attached: dict[str, Any] = {}
        self._closed = False

    # -- owner API ---------------------------------------------------------

    def acquire(self, shape: tuple[int, ...], dtype: Any) -> tuple[np.ndarray, PlaneRef]:
        """A writable plane for ``shape``/``dtype``: recycled or fresh."""
        if self._closed:
            raise StreamError("plane pool is closed")
        dt = np.dtype(dtype)
        nbytes = plane_nbytes(shape, dt)
        bucket = _round_size(nbytes)
        self.stats.acquires += 1
        free = self._free.get(bucket)
        if free:
            name = free.pop()
            self.stats.recycled += 1
        else:
            name = self._create(bucket)
        ref = PlaneRef(segment=name, nbytes=nbytes, shape=tuple(shape), dtype=dt.str)
        return self._map(name, ref), ref

    def acquire_raw(self, nbytes: int) -> PlaneRef:
        """A plane for ``nbytes`` of raw bytes (pack()'s out-of-band path)."""
        if self._closed:
            raise StreamError("plane pool is closed")
        bucket = _round_size(nbytes)
        self.stats.acquires += 1
        free = self._free.get(bucket)
        if free:
            name = free.pop()
            self.stats.recycled += 1
        else:
            name = self._create(bucket)
        return PlaneRef(segment=name, nbytes=nbytes)

    @staticmethod
    def bucket_of(nbytes: int) -> int:
        """The free-list bucket a payload of ``nbytes`` recycles through."""
        return _round_size(nbytes)

    def try_acquire_free(self, nbytes: int) -> PlaneRef | None:
        """A plane from the free list only — never creates (grant path).

        The dispatcher attaches such planes to job leases so workers can
        satisfy predicted allocations without an RPC.  Creation stays on
        the demand-driven :meth:`acquire` path, so granting cannot grow
        the pool beyond the ``pipeline_depth`` working-set bound.
        """
        if self._closed:
            return None
        bucket = _round_size(nbytes)
        free = self._free.get(bucket)
        if not free:
            return None
        name = free.pop()
        self.stats.acquires += 1
        self.stats.recycled += 1
        self.stats.granted += 1
        return PlaneRef(segment=name, nbytes=bucket)

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
        return self._map(ref.segment, ref)

    def open_raw(self, ref: PlaneRef) -> memoryview:
        """Map a plane's payload bytes (any process, zero copy)."""
        return memoryview(self._buffer(ref.segment))[: ref.nbytes]

    def _map(self, name: str, ref: PlaneRef) -> np.ndarray:
        buf = self._buffer(name)
        shape = ref.shape if ref.shape else (ref.nbytes,)
        return np.ndarray(shape, dtype=np.dtype(ref.dtype), buffer=buf)

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
        if self.shared:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=bucket)
            name = seg.name
        else:
            seg = bytearray(bucket)
            name = f"{self.name_prefix}-{self._seq}"
        self._segments[name] = (seg, bucket)
        return name

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

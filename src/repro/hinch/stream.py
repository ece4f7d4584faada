"""Streaming communication: the synchronous primitive between components.

A stream is "a data structure in which the data is only used for a
limited amount of time ... typically implemented using a FIFO queue"
(paper §1).  With pipeline parallelism, up to ``pipeline_depth``
iterations are in flight, so the slots live in *one frame per
iteration*: the :class:`StreamStore` keeps ``iteration -> (stream name
-> value, stream name -> spare list)``, created by the iteration's first
write.  Retiring an iteration (:meth:`StreamStore.release_iteration`)
pops its frame in one step, whatever the number of streams, which bounds
memory to the pipeline depth — the FIFO behaviour of the paper without a
separate ring-buffer implementation.

Data-parallel copies share the stream: the slot is a whole-frame buffer
allocated by the first writer copy (:meth:`Stream.ensure_buffer`), into
which each copy writes its assigned region.  Its geometry is the
stream's solved format (:attr:`Stream.expected`, installed from the
X5xx pass): the format is the buffer plan, so a request names only the
port, and a program with a ``job.buffer`` writer whose stream has no
solved format is refused at build (lint X507).  Other writers use
:meth:`Stream.put` exactly once per iteration; ``put`` is where a
value's geometry is checked.

A stream recycles the buffers it allocates itself: a frame records the
spare list of each allocated array, retiring the iteration puts the
array back on it, and the next request takes it back instead of
allocating.  A new solved format (a splice) installs a fresh spare list,
so an array of the old geometry, released late, goes to the dropped
list and never comes back.  At most ``pipeline_depth`` iterations are
live, so a sliced stream's working set converges to that many arrays.
A stream a splice stops writing keeps its spares for the next toggle
back, so the bound on these arrays is ``pipeline_depth`` per sliced
stream the run has written, summed over streams.  The contract this
rests on: a component must not keep a slot's array past its iteration
(collecting sinks copy what they keep).

The scheduler guarantees writers run before readers inside an iteration;
the stream *verifies* this (read-before-write and double-put raise
:class:`~repro.errors.StreamError`), so an under-ordered coordination
graph is caught loudly instead of producing garbage frames.

Only ``ThreadedRuntime(nodes >= 2)``, whose jobs run concurrently, locks
its streams (:class:`LockedStream`): slice copies on different threads
race on :meth:`Stream.ensure_buffer` and must share one allocation.
The first writes of an iteration, which may race too, create its frame
with one ``dict.setdefault``, atomic under the GIL.  The inline
``nodes=1`` loop, the process dispatcher and the simulator run one job
at a time (process workers have their own streams), so their
:class:`Stream` takes no lock: a job pays for none it cannot contend on.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import StreamError, StreamFormatError
from repro.hinch.shm import Packed, SharedPlanePool

__all__ = ["Stream", "LockedStream", "StreamStore", "check_geometry", "unsolved"]

#: one iteration's slots: stream name -> value, and stream name -> the
#: spare list of an ensure_buffer() slot allocated from the solved format
#: (None for a ``factory`` buffer); a name in the values only was put()
Frame = tuple[dict[str, Any], dict[str, "list[np.ndarray] | None"]]

#: what retiring an iteration nothing wrote pops
_NO_FRAME: Frame = ({}, {})


def check_geometry(
    stream: str,
    iteration: int,
    node: str | None,
    shape: tuple[int, ...],
    dtype: Any,
    have: tuple[tuple[int, ...], Any],
) -> None:
    """Raise :class:`StreamFormatError` unless ``shape``/``dtype`` agree
    with ``have``, the stream's solved port format.

    :meth:`Stream.put` compares inline and comes here only to normalise
    a near-miss (a list for a tuple, ``np.uint8`` for its dtype) or to
    fail.
    """
    have_shape, have_dtype = tuple(have[0]), np.dtype(have[1])
    got_dtype = np.dtype(dtype)
    if tuple(shape) == have_shape and got_dtype == have_dtype:
        return
    raise StreamFormatError(
        f"stream {stream!r}: geometry mismatch in iteration {iteration}: "
        f"node {node or '?'} produced {tuple(shape)}/{got_dtype}, but the "
        f"reconciled port format declares {have_shape}/{have_dtype}"
        " (see lint codes X501/X503, `python -m repro lint`)",
        stream=stream,
        iteration=iteration,
        node=node,
        declared=(have_shape, have_dtype.name),
        observed=(tuple(shape), got_dtype.name),
    )


def unsolved(stream: str, iteration: int, node: str | None) -> StreamFormatError:
    """The error for a buffer request on a stream with no solved format."""
    return StreamFormatError(
        f"stream {stream!r}: node {node or '?'} requested a buffer in "
        f"iteration {iteration}, but the stream has no solved plane format "
        "to allocate (lint code X507: declare the format of every port "
        "on the stream, and the port in its class's PortSpec.buffers so "
        "the build checks it)",
        stream=stream,
        iteration=iteration,
        node=node,
    )


class Stream:
    """One named stream: its slots in the store's frames, written once each.

    The values live in ``store``'s per-iteration frames (a private
    store's when none is given), keyed by :attr:`name`.  Sliced-writer
    buffers, allocated from :attr:`expected`, are the stream's own: the
    frame records :attr:`_spare` as their spare list, retiring the
    iteration appends them to it, and :meth:`ensure_buffer` reuses them,
    so after warm-up the stream stops allocating.

    Takes no lock: :class:`LockedStream` is the one for concurrent jobs.
    So a :class:`~repro.hinch.component.JobContext` bound to a plain
    ``Stream`` serves the common port accesses from :attr:`_frames` in
    its own frame — a read of a written slot, a later slice copy's
    buffer — and counts them in :attr:`_reads` / :attr:`_writes`;
    everything else, and every check, is :meth:`get` and
    :meth:`ensure_buffer`.
    """

    def __init__(self, name: str, store: StreamStore | None = None) -> None:
        if store is None:
            store = StreamStore(locked=isinstance(self, LockedStream))
        self.name = name
        #: the store's plane pool and iteration -> Frame table; neither
        #: refers back to the store, so a dropped store is freed without
        #: the cyclic collector
        self._pool = store.pool
        self._frames: dict[int, Frame] = store._frames
        #: released buffers of :attr:`_spare_format`, for the next request;
        #: replaced, not emptied, when a new format is installed
        self._spare: list[np.ndarray] = []
        self._spare_format: tuple[tuple[int, ...], np.dtype] | None = None
        self._writes = 0
        self._reads = 0
        #: solved (shape, dtype) from the format-reconciliation pass: what
        #: ensure_buffer() allocates and what put() checks a plane against
        self.expected: tuple[tuple[int, ...], np.dtype] | None = None
        #: first-write geometry as seen: (kind, shape, dtype) with the
        #: dtype unformatted (see :attr:`observed`)
        self._observed: tuple | None = None

    def set_expected(self, shape: tuple[int, ...], dtype: Any) -> None:
        """Install the reconciled format as this stream's authority.

        A new geometry gets a fresh spare list: a buffer of the old one
        that an older iteration releases later goes to the dropped list.
        A splice that stops writing the stream (``expected`` None) keeps
        the list for the toggle back.
        """
        self.expected = expected = (tuple(shape), np.dtype(dtype))
        if expected != self._spare_format:
            self._spare_format = expected
            self._spare = []

    @property
    def observed(self) -> tuple | None:
        """First-write geometry: ("plane", shape, dtype name) for ndarrays,
        (kind, None, None) for opaque payloads, None before any write."""
        seen = self._observed
        if seen is None or seen[2] is None:
            return seen
        kind, shape, dtype = seen
        return kind, tuple(shape), np.dtype(dtype).name

    def _observe(self, value: Any) -> None:
        if isinstance(value, np.ndarray):
            self._observed = ("plane", value.shape, value.dtype)
        elif isinstance(value, Packed):
            # Process-backend transport descriptor: a bare plane exposes
            # its geometry through the ref; pickled payloads stay opaque.
            if value.kind == "plane" and value.refs:
                ref = value.refs[0]
                self._observed = ("plane", ref.shape, ref.dtype)
            else:
                self._observed = ("packed", None, None)
        else:
            kind = getattr(value, "FORMAT_KIND", None) or getattr(
                type(value), "FORMAT_KIND", None
            )
            if kind is None and isinstance(value, (int, float)):
                kind = "scalar"
            self._observed = (kind or type(value).__name__, None, None)

    def _check_put(self, iteration: int, value: Any, writer: str | None) -> None:
        """:meth:`put`'s format contract for anything but a plain ndarray."""
        if isinstance(value, np.ndarray):
            geometry = value
        elif isinstance(value, Packed) and value.kind == "plane" and value.refs:
            geometry = value.refs[0]
        else:
            return
        check_geometry(self.name, iteration, writer, geometry.shape,
                       geometry.dtype, self.expected)

    # -- writer API ----------------------------------------------------------

    def put(self, iteration: int, value: Any, *, writer: str | None = None) -> None:
        """Write the whole value for ``iteration`` (unsliced writer)."""
        name = self.name
        frames = self._frames
        if iteration in frames:
            values = frames[iteration][0]
            if name in values:
                raise StreamError(
                    f"stream {name!r}: double write in iteration {iteration}"
                )
        else:
            values = None
        expected = self.expected
        if expected is not None:
            # the common case is decided inline: a plain ndarray of
            # exactly the solved geometry
            if type(value) is not np.ndarray:
                self._check_put(iteration, value, writer)
            elif value.shape != expected[0] or value.dtype != expected[1]:
                check_geometry(self.name, iteration, writer, value.shape,
                               value.dtype, expected)
        if self._observed is None:
            self._observe(value)
        if values is None:
            values = self._frames.setdefault(iteration, ({}, {}))[0]
        values[name] = value
        self._writes += 1

    def ensure_buffer(
        self,
        iteration: int,
        factory: Callable[[], Any] | None = None,
        *,
        writer: str | None = None,
    ) -> Any:
        """Create-or-get the mutable slot buffer for a sliced writer.

        All slice copies of the writer call this; the first call
        allocates :attr:`expected` (or takes a released buffer of it
        back), the others get that buffer.  It is mutated in place (each
        copy fills its region), so the slot is immediately visible —
        ordering is the scheduler's job.  ``factory`` makes the buffer
        instead, never recycled; its one caller is the process
        dispatcher's ``_ensure_slot``, whose slot is a packed
        shared-memory plane of :attr:`expected`.

        A stream with no solved format has nothing to allocate: the
        request raises :class:`StreamFormatError` (lint X507 refuses such
        a writer at build when its class declares the port in
        ``PortSpec.buffers``).
        """
        name = self.name
        frames = self._frames
        frame = frames[iteration] if iteration in frames else None
        if frame is not None and name in frame[0]:
            if name not in frame[1]:
                raise StreamError(
                    f"stream {name!r}: sliced write after finalizing "
                    f"put() in iteration {iteration}"
                )
            self._writes += 1
            return frame[0][name]
        expected = self.expected
        if expected is None:
            raise unsolved(name, iteration, writer)
        if factory is not None:
            buffer = factory()
            spare = None
        else:
            spare = self._spare
            buffer = spare.pop() if spare else np.empty(*expected)
        if self._observed is None:
            self._observe(buffer)
        if frame is None:
            frame = frames.setdefault(iteration, ({}, {}))
        frame[0][name] = buffer
        frame[1][name] = spare
        self._writes += 1
        return buffer

    # -- reader API ------------------------------------------------------------

    def get(self, iteration: int) -> Any:
        """Read the value for ``iteration``; raises if not yet written."""
        frames = self._frames
        if iteration in frames:
            values = frames[iteration][0]
            if self.name in values:
                self._reads += 1
                return values[self.name]
        raise StreamError(
            f"stream {self.name!r}: read before write in iteration "
            f"{iteration} (task graph does not order producer before "
            "consumer)"
        )

    def has(self, iteration: int) -> bool:
        frames = self._frames
        return iteration in frames and self.name in frames[iteration][0]

    # -- lifecycle ---------------------------------------------------------------

    def release(self, iteration: int) -> None:
        """Drop this stream's slot of a retired iteration (idempotent).

        The runtimes retire every stream at once with
        :meth:`StreamStore.release_iteration`; this is the one-stream
        form, with the same hand-back: an allocated buffer goes to the
        spare list, the planes of a :class:`~repro.hinch.shm.Packed`
        value to the store's pool.  An emptied frame is dropped.
        """
        frames = self._frames
        name = self.name
        if iteration not in frames or name not in frames[iteration][0]:
            return
        values, buffers = frames[iteration]
        value = values.pop(name)
        spare = buffers.pop(name, None)
        if spare is not None:
            spare.append(value)
        elif type(value) is Packed and self._pool is not None:
            self._pool.release_packed(value)
        if not values:
            frames.pop(iteration, None)

    @property
    def live_slots(self) -> int:
        return sum(self.name in values for values, _ in self._frames.values())

    @property
    def stats(self) -> tuple[int, int]:
        """(writes, reads) counters, for tests and tracing."""
        return self._writes, self._reads

    def __repr__(self) -> str:
        return f"Stream({self.name!r}, live={self.live_slots})"


class LockedStream(Stream):
    """A :class:`Stream` whose writes, reads and releases hold its lock.

    Racing slice copies allocate one :meth:`ensure_buffer` buffer, a
    racing second :meth:`put` fails, and a buffer is released (to the
    spare list) once.  The one-lookup :meth:`has` needs no lock.
    """

    def __init__(self, name: str, store: StreamStore | None = None) -> None:
        super().__init__(name, store)
        self._lock = threading.Lock()

    def put(self, iteration: int, value: Any, *, writer: str | None = None) -> None:
        with self._lock:
            super().put(iteration, value, writer=writer)

    def ensure_buffer(self, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return super().ensure_buffer(*args, **kwargs)

    def get(self, iteration: int) -> Any:
        with self._lock:
            return super().get(iteration)

    def release(self, iteration: int) -> None:
        with self._lock:
            super().release(iteration)


class StreamStore:
    """All streams of one running application, and their slots.

    Streams are created on first use; their values live in one frame per
    live iteration (:data:`Frame`), which :meth:`release_iteration`
    retires in one step.  An optional
    :class:`~repro.hinch.shm.SharedPlanePool` (the process dispatcher's)
    takes back the planes of the packed transport values.  ``locked``
    makes every stream a :class:`LockedStream`, for an executor whose
    jobs run concurrently.
    """

    def __init__(
        self, pool: SharedPlanePool | None = None, *, locked: bool = False
    ) -> None:
        self.pool = pool
        self._stream_cls = LockedStream if locked else Stream
        self._lock = threading.Lock()
        self._streams: dict[str, Stream] = {}
        #: iteration -> its frame, from its first write to its retirement
        self._frames: dict[int, Frame] = {}
        #: stream name -> (shape, dtype) from the format-reconciliation
        #: pass, installed on streams as they are created
        self._expectations: dict[str, tuple[tuple[int, ...], Any]] = {}

    def set_expectations(
        self, expectations: Mapping[str, tuple[tuple[int, ...], Any]]
    ) -> None:
        """Install solved per-stream formats as buffer authorities.

        ``expectations`` maps stream name to ``(shape, dtype)`` — the
        output of :func:`repro.analysis.formats.runtime_expectations`.
        Replaces the previous expectation table (reconfiguration swaps
        the active configuration's solution in) and applies to both
        existing and future streams.
        """
        with self._lock:
            self._expectations = dict(expectations)
            for name, stream in self._streams.items():
                exp = self._expectations.get(name)
                if exp is not None:
                    stream.set_expected(*exp)
                else:
                    stream.expected = None

    def observed_formats(self) -> dict[str, tuple]:
        """First-write geometry per stream, for format-parity checks."""
        with self._lock:
            return {
                name: s.observed
                for name, s in self._streams.items()
                if s.observed is not None
            }

    def stream(self, name: str) -> Stream:
        """The named stream; created, under the lock, on first use."""
        try:
            return self._streams[name]
        except KeyError:
            pass
        with self._lock:
            stream = self._streams.get(name)
            if stream is None:
                stream = self._stream_cls(name, self)
                exp = self._expectations.get(name)
                if exp is not None:
                    stream.set_expected(*exp)
                self._streams[name] = stream
            return stream

    def release_iteration(self, iteration: int) -> None:
        """Retire ``iteration``: drop its frame in one step.

        Each allocated buffer of the frame goes back to its stream's
        spare list (one append each) and, with a pool, the planes of
        each :class:`~repro.hinch.shm.Packed` value to the pool; the
        cost does not grow with the number of streams.
        """
        values, buffers = self._frames.pop(iteration, _NO_FRAME)
        for name in buffers:
            spare = buffers[name]
            if spare is not None:
                spare.append(values[name])
        if self.pool is not None:
            for value in values.values():
                if type(value) is Packed:
                    self.pool.release_packed(value)

    @property
    def names(self) -> list[str]:
        with self._lock:
            return list(self._streams)

    @property
    def live_iterations(self) -> int:
        """Iterations with a frame: written and not yet retired."""
        return len(self._frames)

    def total_live_slots(self) -> int:
        return sum(len(values) for values, _ in list(self._frames.values()))

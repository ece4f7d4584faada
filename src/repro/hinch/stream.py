"""Streaming communication: the synchronous primitive between components.

A stream is "a data structure in which the data is only used for a
limited amount of time ... typically implemented using a FIFO queue"
(paper §1).  With pipeline parallelism, up to ``pipeline_depth``
iterations are in flight, so a stream holds one *slot per iteration*;
slots are released when their iteration completes, which bounds memory to
the pipeline depth — the FIFO behaviour of the paper without a separate
ring-buffer implementation.

Data-parallel copies share the stream: the slot is a whole-frame buffer
allocated by the first writer copy (:meth:`Stream.ensure_buffer`), into
which each copy writes its assigned region.  Unsliced writers use
:meth:`Stream.put` exactly once per iteration.

A stream recycles the buffers it allocates itself: releasing an
iteration puts its ``shape``-allocated array on the stream's spare list,
and the next request of the same shape and dtype takes it back instead
of allocating.  At most ``pipeline_depth`` iterations are live, so a
sliced stream's working set converges to that many arrays.  A stream a
splice stops writing keeps its spares for the next toggle back, so the
bound on these arrays is ``pipeline_depth`` per sliced stream the run has
written, summed over streams.  The contract this rests on: a component
must not keep a slot's array past its iteration (collecting sinks copy
what they keep).

The scheduler guarantees writers run before readers inside an iteration;
the stream *verifies* this (read-before-write and double-put raise
:class:`~repro.errors.StreamError`), so an under-ordered coordination
graph is caught loudly instead of producing garbage frames.

Only ``ThreadedRuntime(nodes >= 2)``, whose jobs run concurrently, locks
its streams (:class:`LockedStream`): slice copies on different threads
race on :meth:`Stream.ensure_buffer` and must share one allocation.  The
inline ``nodes=1`` loop, the process dispatcher and the simulator run one
job at a time (process workers have their own streams), so their
:class:`Stream` takes no lock: a job pays for none it cannot contend on.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import StreamError, StreamFormatError
from repro.hinch.shm import Packed, SharedPlanePool

__all__ = ["Stream", "LockedStream", "StreamStore", "check_geometry"]

#: how a writer can disagree with a (shape, dtype) authority
AGAINST_FORMAT = "produced {got}, but the reconciled port format declares {have}"
AGAINST_SLOT = "requested {got}, slot already allocated as {have}"


def check_geometry(
    stream: str,
    iteration: int,
    node: str | None,
    shape: tuple[int, ...],
    dtype: Any,
    have: tuple[tuple[int, ...], Any],
    clash: str,
) -> None:
    """Raise :class:`StreamFormatError` unless ``shape``/``dtype`` agree with ``have``.

    ``have`` is the authority — the solved port format
    (:data:`AGAINST_FORMAT`) or the slot another slice copy already
    allocated (:data:`AGAINST_SLOT`); ``dtype=None`` compares shapes only.
    The hot paths compare inline and come here only to normalise a
    near-miss (a list for a tuple, ``np.uint8`` for its dtype) or to fail.
    """
    have_shape, have_dtype = tuple(have[0]), np.dtype(have[1])
    got_dtype = np.dtype(dtype) if dtype is not None else None
    if tuple(shape) == have_shape and (got_dtype is None or got_dtype == have_dtype):
        return
    raise StreamFormatError(
        f"stream {stream!r}: ensure_buffer geometry mismatch in iteration "
        f"{iteration}: node {node or '?'} "
        + clash.format(got=f"{tuple(shape)}/{got_dtype}",
                       have=f"{have_shape}/{have_dtype}")
        + " (see lint codes X501/X503, `python -m repro lint`)",
        stream=stream,
        iteration=iteration,
        node=node,
        declared=(have_shape, have_dtype.name),
        observed=(tuple(shape), got_dtype.name if got_dtype else None),
    )


class Stream:
    """One named stream: per-iteration slots with write-once discipline.

    Sliced-writer buffers requested by ``shape``/``dtype`` are the
    stream's own: :meth:`release` keeps them on :attr:`_spare` and
    :meth:`ensure_buffer` reuses them, so after warm-up the stream stops
    allocating.  ``pool`` is the process dispatcher's
    :class:`~repro.hinch.shm.SharedPlanePool`; :meth:`release` hands it
    the planes of :class:`~repro.hinch.shm.Packed` values.

    Takes no lock: :class:`LockedStream` is the one for concurrent jobs.
    So a :class:`~repro.hinch.component.JobContext` bound to a plain
    ``Stream`` serves the common port accesses from :attr:`_slots` in its
    own frame — a read of a written slot, a later slice copy's exact
    buffer request — and counts them in :attr:`_reads` / :attr:`_writes`;
    everything else, and every check, is :meth:`get` and
    :meth:`ensure_buffer`.
    """

    def __init__(self, name: str, pool: SharedPlanePool | None = None) -> None:
        self.name = name
        self.pool = pool
        self._slots: dict[int, Any] = {}
        #: iteration -> whether release() recycles the slot: an
        #: ensure_buffer() slot, True when allocated from a ``shape``,
        #: False for a ``factory`` buffer.  A slot not in here was put().
        self._buffers: dict[int, bool] = {}
        #: released ``shape`` buffers, for the next request of their geometry
        self._spare: list[np.ndarray] = []
        self._writes = 0
        self._reads = 0
        #: solved (shape, dtype) from the format-reconciliation pass; when
        #: set, writers are validated against it instead of trusting the
        #: first write (X501/X503 territory at runtime)
        self.expected: tuple[tuple[int, ...], np.dtype] | None = None
        #: first-write geometry actually seen: ("plane", shape, dtype name)
        #: for ndarrays, (kind, None, None) for opaque payloads
        self.observed: tuple | None = None

    def set_expected(self, shape: tuple[int, ...], dtype: Any) -> None:
        """Install the reconciled format as this stream's authority."""
        self.expected = (tuple(shape), np.dtype(dtype))

    def _observe(self, value: Any) -> None:
        if isinstance(value, np.ndarray):
            self.observed = ("plane", tuple(value.shape), value.dtype.name)
        elif isinstance(value, Packed):
            # Process-backend transport descriptor: a bare plane exposes
            # its geometry through the ref; pickled payloads stay opaque.
            if value.kind == "plane" and value.refs:
                ref = value.refs[0]
                self.observed = (
                    "plane", tuple(ref.shape), np.dtype(ref.dtype).name
                )
            else:
                self.observed = ("packed", None, None)
        else:
            kind = getattr(value, "FORMAT_KIND", None) or getattr(
                type(value), "FORMAT_KIND", None
            )
            if kind is None and isinstance(value, (int, float)):
                kind = "scalar"
            self.observed = (kind or type(value).__name__, None, None)

    def check_expected(
        self,
        iteration: int,
        shape: tuple[int, ...] | None,
        dtype: Any,
        writer: str | None,
    ) -> None:
        if self.expected is not None and shape is not None:
            check_geometry(self.name, iteration, writer, shape, dtype,
                           self.expected, AGAINST_FORMAT)

    def _check_put(self, iteration: int, value: Any, writer: str | None) -> None:
        """:meth:`put`'s format contract for anything but a plain ndarray."""
        if isinstance(value, np.ndarray):
            self.check_expected(iteration, value.shape, value.dtype, writer)
        elif isinstance(value, Packed) and value.kind == "plane" and value.refs:
            ref = value.refs[0]
            self.check_expected(iteration, ref.shape, ref.dtype, writer)

    # -- writer API ----------------------------------------------------------

    def put(self, iteration: int, value: Any, *, writer: str | None = None) -> None:
        """Write the whole value for ``iteration`` (unsliced writer)."""
        if iteration in self._slots:
            raise StreamError(
                f"stream {self.name!r}: double write in iteration {iteration}"
            )
        expected = self.expected
        if expected is not None:
            # the common case is decided inline: a plain ndarray of
            # exactly the solved geometry
            if type(value) is not np.ndarray:
                self._check_put(iteration, value, writer)
            elif value.shape != expected[0] or value.dtype != expected[1]:
                self.check_expected(iteration, value.shape, value.dtype, writer)
        if self.observed is None:
            self._observe(value)
        self._slots[iteration] = value
        self._writes += 1

    def ensure_buffer(
        self,
        iteration: int,
        factory: Callable[[], Any] | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: Any = None,
        writer: str | None = None,
    ) -> Any:
        """Create-or-get the mutable slot buffer for a sliced writer.

        All slice copies of the writer call this with an equivalent
        allocation request; the first call allocates.  The returned
        buffer is mutated in place (each copy fills its region), so the
        slot is immediately visible — ordering is the scheduler's job.

        Writers that know their output geometry pass ``shape``/``dtype``,
        which lets the stream reuse a released buffer of that geometry;
        ``factory`` is the fallback for arbitrary buffers (always a fresh
        allocation, never recycled).  A ``shape`` without ``dtype`` gets
        the solved format's dtype when there is one.

        Every call after the first is validated against the existing
        allocation: slice copies disagreeing on geometry would otherwise
        silently share a wrong-size buffer and corrupt frames far from
        the faulty writer, so a mismatch raises :class:`StreamError`
        here instead.
        """
        if iteration in self._slots and iteration not in self._buffers:
            raise StreamError(
                f"stream {self.name!r}: sliced write after finalizing "
                f"put() in iteration {iteration}"
            )
        buffer = self._slots[iteration] if iteration in self._slots else None
        if shape is not None:
            # Inline comparisons settle the common case (the request
            # is literally the solved format / the allocated slot);
            # anything else is normalised, and refused, by the checks.
            expected = self.expected
            if expected is not None:
                if dtype is None:
                    dtype = expected[1]  # the solved dtype, not float64
                if shape != expected[0] or dtype != expected[1]:
                    self.check_expected(iteration, shape, dtype, writer)
            if (
                buffer is not None
                and isinstance(buffer, np.ndarray)
                and (shape != buffer.shape or dtype is None
                     or dtype != buffer.dtype)
            ):
                check_geometry(self.name, iteration, writer, shape, dtype,
                               (buffer.shape, buffer.dtype), AGAINST_SLOT)
        if buffer is None:
            if shape is not None:
                spare = self._spare
                if spare and (spare[-1].shape != shape
                              or spare[-1].dtype != dtype):
                    # a new geometry (a splice re-solved the format)
                    # strands the old spares: drop them
                    spare.clear()
                buffer = spare.pop() if spare else np.empty(shape, dtype=dtype)
                self._buffers[iteration] = True
            elif factory is not None:
                buffer = factory()
                self._buffers[iteration] = False
            else:
                raise StreamError(
                    f"stream {self.name!r}: ensure_buffer needs a "
                    "factory or a shape"
                )
            if self.observed is None:
                self._observe(buffer)
            self._slots[iteration] = buffer
        self._writes += 1
        return buffer

    # -- reader API ------------------------------------------------------------

    def get(self, iteration: int) -> Any:
        """Read the value for ``iteration``; raises if not yet written."""
        if iteration not in self._slots:
            raise StreamError(
                f"stream {self.name!r}: read before write in iteration "
                f"{iteration} (task graph does not order producer before "
                "consumer)"
            )
        self._reads += 1
        return self._slots[iteration]

    def has(self, iteration: int) -> bool:
        return iteration in self._slots

    # -- lifecycle ---------------------------------------------------------------

    def release(self, iteration: int) -> None:
        """Drop the slot for a completed iteration (idempotent).

        A buffer :meth:`ensure_buffer` allocated from a ``shape`` goes to
        the spare list; the planes of a :class:`~repro.hinch.shm.Packed`
        transport value (the process dispatcher's) go back to the pool.
        Either way memory stays bounded by the live iterations.
        """
        # Runs for every stream on every iteration: only a recycled
        # buffer or a Packed value costs more than two dict pops.
        value = self._slots.pop(iteration, None)
        if self._buffers.pop(iteration, False):
            self._spare.append(value)
        elif type(value) is Packed and self.pool is not None:
            self.pool.release_packed(value)

    @property
    def live_slots(self) -> int:
        return len(self._slots)

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
    spare list) once.  The
    one-lookup :meth:`has` needs no lock.
    """

    def __init__(self, name: str, pool: SharedPlanePool | None = None) -> None:
        super().__init__(name, pool)
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
    """All streams of one running application, created on first use.

    An optional :class:`~repro.hinch.shm.SharedPlanePool` (the process
    dispatcher's) takes back the planes of every stream's packed
    transport values.  ``locked`` makes every stream a
    :class:`LockedStream`, for an executor whose jobs run concurrently.
    """

    def __init__(
        self, pool: SharedPlanePool | None = None, *, locked: bool = False
    ) -> None:
        self.pool = pool
        self._stream_cls = LockedStream if locked else Stream
        self._lock = threading.Lock()
        self._streams: dict[str, Stream] = {}
        #: cached list of all streams, invalidated on stream creation, so
        #: the per-iteration release sweep doesn't rebuild it every time
        self._snapshot: list[Stream] | None = None
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
                stream = self._stream_cls(name, self.pool)
                exp = self._expectations.get(name)
                if exp is not None:
                    stream.set_expected(*exp)
                self._streams[name] = stream
                self._snapshot = None
            return stream

    def release_iteration(self, iteration: int) -> None:
        """Release the given iteration's slot in every stream."""
        with self._lock:
            streams = self._snapshot
            if streams is None:
                streams = self._snapshot = list(self._streams.values())
        for stream in streams:
            stream.release(iteration)

    @property
    def names(self) -> list[str]:
        with self._lock:
            return list(self._streams)

    def total_live_slots(self) -> int:
        with self._lock:
            streams = list(self._streams.values())
        return sum(s.live_slots for s in streams)

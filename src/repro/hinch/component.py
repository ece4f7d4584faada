"""Component base class and the per-job context API.

Components "implement the basic functionality of the application" and
interact with the world exclusively through:

* their stream ports (``job.read`` / ``job.write`` / ``job.buffer``),
* events (``job.post_event``),
* the reconfiguration interface (:meth:`Component.reconfigure`), which
  also delivers the slice assignment in data-parallel mode.

A component never learns which other components its streams connect to —
the abstraction requirement of paper §2.3.
"""

from __future__ import annotations

from typing import Any, Callable

from numpy import ndarray

from repro.core.ports import PortSpec
from repro.core.program import ComponentInstance
from repro.errors import ComponentError
from repro.hinch.events import Event, EventBroker
from repro.hinch.stream import Stream, StreamStore

__all__ = ["Component", "JobContext"]


class Component:
    """Base class for all component implementations.

    Subclasses override :meth:`run` (mandatory) and optionally
    :meth:`configure`, :meth:`setup`, :meth:`reconfigure`,
    :meth:`teardown`.  The constructor signature is fixed: the runtime
    instantiates components as ``cls(instance)``.

    A job does only its kernel and its port accesses: what :meth:`run`
    needs from :attr:`params` and :attr:`slice` (parsed params, the row
    span, a filter kernel) :meth:`configure` derives into attributes.

    Class attribute ``ports`` declares the component class's i/o ports
    and parameter schema; the registry publishes it to the validator.
    """

    ports: PortSpec = PortSpec()

    #: When True, the SpaceCAKE simulator executes this component even in
    #: cost-only mode (no functional data).  Set it on lightweight control
    #: components (event timers) whose *behaviour* — not data — drives the
    #: experiment; such components must tolerate streams carrying nothing.
    always_execute: bool = False

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        """Row span ``[lo, hi)`` this copy writes on output ``port``.

        The chain-fusion compiler (:mod:`repro.hinch.fusion`) uses this
        access contract to prove that a sliced consumer only reads rows
        its paired producer copy wrote, so the intermediate plane can
        stay a worker-local temporary.  Unsliced copies write the whole
        plane; sliced copies default to ``None`` (unknown), which makes
        fusion refuse — override for components with a provable span.
        """
        if instance.slice is None:
            return (0, height)
        return None

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        """Row span ``[lo, hi)`` this copy reads on input ``port``.

        Counterpart of :meth:`writes_rows`; same ``None`` = unknown
        semantics.  ``height`` is the full plane height of the stream
        bound to ``port`` (from the reconciled X5xx format solution).
        """
        if instance.slice is None:
            return (0, height)
        return None

    @classmethod
    def compile_fused_pair(
        cls,
        upstream_cls: type["Component"],
        upstream: ComponentInstance,
        instance: ComponentInstance,
    ):
        """Optional combined kernel replacing ``upstream.run`` + ``run``.

        The build (:mod:`repro.hinch.fusion`) asks the *downstream* class
        about every graph-linear pair whose intermediate streams only
        this instance reads; with a kernel, the pair becomes one node
        and the intermediate is never written, so the kernel may skip
        provably-lossless detours (the mini-JPEG Huffman round-trip
        between ``mjpeg_source`` and ``jpeg_decode``).  Return a callable
        ``(upstream_component, component, upstream_job, job) -> None``
        whose observable effects (stream writes, events, state) are
        bit-identical to running both in order, or ``None`` (the
        default).  It must not raise: the build calls it on every
        candidate pair.
        """
        return None

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> Any | None:
        """Intrinsic cost of one job (a ``spacecake.costmodel.JobCost``).

        Return ``None`` (the default) to use the simulator's fallback
        cost.  Implementations derive cycles and per-port byte counts
        from the instance's parameters and slice assignment.
        """
        return None

    def __init__(self, instance: ComponentInstance) -> None:
        self.instance = instance
        self.params = dict(instance.params)
        #: (index, n) when running in data-parallel mode, else None.  Set
        #: from the instance descriptor; a "slice=i/n" request reassigns
        #: it (the paper's reconfiguration interface for slice assignment).
        self.slice = instance.slice
        self.configure()

    # -- lifecycle ------------------------------------------------------------

    def configure(self) -> None:
        """Derive what :meth:`run` reads from :attr:`params` and :attr:`slice`.

        Runs at the end of the constructor (before a subclass
        constructor's own assignments) and after every :meth:`reconfigure`.
        Raise :class:`~repro.errors.ComponentError` for a value that cannot
        work: it then fails where it is set, not at the first job.
        """

    def setup(self) -> None:
        """Called once after construction, before the first run."""

    def run(self, job: "JobContext") -> None:
        """Execute one iteration's worth of work."""
        raise NotImplementedError

    def reconfigure(self, request: str) -> None:
        """Reconfiguration interface (paper §3.1).

        Default: parse ``key=value`` into ``self.params``; ``slice=i/n``
        updates the slice assignment; then :meth:`configure` re-derives
        (e.g. the picture-in-picture blender moves the blended picture).
        """
        for part in request.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ComponentError(
                    f"component {self.instance.instance_id!r}: malformed "
                    f"reconfiguration request {part!r}"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "slice":
                index, _, total = value.partition("/")
                if not (index.isdecimal() and total.isdecimal()
                        and int(index) < int(total)):
                    raise ComponentError(
                        f"component {self.instance.instance_id!r}: bad slice "
                        f"request {part!r} (expected slice=i/n, 0 <= i < n)")
                self.slice = (int(index), int(total))
            else:
                self.params[key] = value
        self.configure()

    def teardown(self) -> None:
        """Called when the component is destroyed (option disabled)."""

    # -- distributed state ----------------------------------------------------

    def snapshot_state(self) -> Any | None:
        """Observable run state to ship back to the dispatcher.

        On the process backend each worker holds its own mirror of a
        component, so state accumulated by ``run`` (collected frames,
        counters) is sharded across processes.  At shutdown the runtime
        snapshots every worker mirror and folds the pieces into the
        dispatcher's instance via :meth:`merge_state`.  Return ``None``
        (the default) for components with no observable state; the
        snapshot must be picklable.
        """
        return None

    def merge_state(self, state: Any) -> None:
        """Fold one worker mirror's :meth:`snapshot_state` into this copy."""

    def checkpoint_state(self) -> Any | None:
        """Hand off the state accrued since the previous checkpoint.

        The process backend calls this on each worker mirror right after
        every completed job and ships the returned delta with the
        completion message; the dispatcher folds it into its own mirror
        via :meth:`merge_state` immediately.  State is thus acknowledged
        job-by-job instead of only at shutdown — a worker crash can lose
        at most the unacknowledged job, which the dispatcher retries
        anyway, so collected output survives worker failure bit-for-bit.

        Implementations must *move* the state out (snapshot-and-reset),
        or the residual :meth:`snapshot_state` at shutdown would merge it
        twice.  Return ``None`` (the default) when nothing accrued; the
        delta must be picklable.
        """
        return None

    # -- helpers -----------------------------------------------------------------

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require_param(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise ComponentError(
                f"component {self.instance.instance_id!r} requires param "
                f"{name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.instance.instance_id!r})"


class JobContext:
    """Everything one job execution may touch.

    Bound to (component instance, iteration).  Port-to-stream resolution
    goes through the *current configuration's* alias map so bypassed
    streams are transparent to the component; a port is resolved on its
    first access and stays bound, so a context that outlives one job
    (:class:`~repro.hinch.engine.NodePlan` keeps one per instance for the
    life of a configuration) pays the lookup once.

    A port bound to a lock-free :class:`~repro.hinch.stream.Stream` (the
    inline ``nodes=1`` loop, the process dispatcher, the simulator: one
    job at a time) serves a written slot, and a later slice copy's exact
    buffer request, in one frame.  Everything else, and every other kind
    of stream, goes through the stream's methods, home of every check.
    """

    def __init__(
        self,
        instance: ComponentInstance,
        iteration: int,
        streams: StreamStore,
        broker: EventBroker,
        aliases: dict[str, str],
        *,
        stop_requester: Callable[[], None] | None = None,
    ) -> None:
        self.instance = instance
        self.iteration = iteration
        self._streams = streams
        self._broker = broker
        self._aliases = aliases
        self._stop_requester = stop_requester
        #: port -> (alias-resolved stream, its slots if it is a lock-free
        #: Stream else None), filled on first access
        self._bound: dict[str, tuple[Any, dict[int, Any] | None]] = {}

    # -- stream access ---------------------------------------------------------

    def _bind(self, port: str) -> tuple[Any, dict[int, Any] | None]:
        try:
            raw = self.instance.streams[port]
        except KeyError:
            raise ComponentError(
                f"component {self.instance.instance_id!r} has no port "
                f"{port!r} bound (bound: {sorted(self.instance.streams)})"
            ) from None
        stream = self._streams.stream(self._aliases.get(raw, raw))
        bound = self._bound[port] = (
            stream, stream._slots if type(stream) is Stream else None
        )
        return bound

    def read(self, port: str) -> Any:
        """Read this iteration's value from an input port."""
        try:
            stream, slots = self._bound[port]
        except KeyError:
            stream, slots = self._bind(port)
        iteration = self.iteration
        if slots is not None and iteration in slots:
            stream._reads += 1
            return slots[iteration]
        return stream.get(iteration)

    def write(self, port: str, value: Any) -> None:
        """Write this iteration's value to an output port (whole value)."""
        try:
            stream = self._bound[port][0]
        except KeyError:
            stream = self._bind(port)[0]
        stream.put(self.iteration, value, writer=self.instance.instance_id)

    def buffer(
        self,
        port: str,
        factory: Callable[[], Any] | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: Any = None,
    ) -> Any:
        """Get the shared output buffer for a sliced writer.

        The first copy to arrive allocates; every copy then fills its own
        region in place.  Prefer ``shape``/``dtype`` over ``factory`` —
        a declared geometry lets the runtime recycle the buffer from its
        plane pool (and, on the process backend, place it directly in
        shared memory so slice copies on different cores write the same
        plane).  With ``shape`` and no ``dtype``, a stream whose format
        is solved allocates the solved dtype.
        """
        try:
            stream, slots = self._bound[port]
        except KeyError:
            stream, slots = self._bind(port)
        iteration = self.iteration
        if (
            slots is not None
            and iteration in slots
            and iteration not in stream._finalized
        ):
            # A later slice copy whose request is literally the slot and
            # the solved format (a dtype also equals None, so one must be
            # named), or a factory request, which nothing checks.
            buf = slots[iteration]
            expected = stream.expected
            if shape is None or (
                dtype is not None
                and type(buf) is ndarray
                and shape == buf.shape
                and dtype == buf.dtype
                and (expected is None
                     or (shape == expected[0] and dtype == expected[1]))
            ):
                stream._writes += 1
                return buf
        return stream.ensure_buffer(
            iteration, factory, shape=shape, dtype=dtype,
            writer=self.instance.instance_id,
        )

    # -- events -------------------------------------------------------------------

    def post_event(self, queue: str, name: str, payload: Any = None) -> None:
        self._broker.post(
            queue, Event(name=name, payload=payload,
                         source=self.instance.instance_id)
        )

    # -- control --------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the runtime to stop admitting iterations (e.g. end of input)."""
        if self._stop_requester is not None:
            self._stop_requester()

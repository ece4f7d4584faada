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

import math
from typing import Any, Callable

from repro.core.formats import parse_format
from repro.core.parser import parse_value
from repro.core.ports import PortSpec
from repro.core.program import ComponentInstance
from repro.errors import ComponentError
from repro.hinch.events import Event, EventBroker
from repro.hinch.stream import Stream, StreamStore

__all__ = ["Component", "JobContext", "row_span"]


def row_span(
    assignment: tuple[int, int] | None, height: int, block: int = 1
) -> tuple[int, int] | None:
    """Rows ``[lo, hi)`` that copy ``assignment = (index, n)`` covers.

    The ``height`` rows are cut into ``n`` near-equal runs of whole
    ``block``-row units; an unsliced copy (``None``) covers them all.
    ``None`` when ``height`` is not a whole number of blocks.
    """
    if assignment is None:
        return 0, height
    if height % block:
        return None
    index, total = assignment
    if not 0 <= index < total:
        raise ComponentError(
            f"slice index {index} out of range 0..{total - 1}")
    units = height // block
    return index * units // total * block, (index + 1) * units // total * block


class Component:
    """Base class for all component implementations.

    Subclasses override :meth:`run` (mandatory) and optionally
    :meth:`configure`, :meth:`setup`, :meth:`reconfigure`,
    :meth:`teardown`.  The constructor signature is fixed: the runtime
    instantiates components as ``cls(instance)``.

    A job does only its kernel and its port accesses: what :meth:`run`
    needs from :attr:`params` and :attr:`slice` (the row span, a filter
    kernel) :meth:`configure` derives into attributes.

    Class attribute ``ports`` declares the component class's i/o ports
    and typed init parameters; the registry publishes it to the validator
    and the expander, which binds every instance's params against it, so
    :attr:`params` holds typed values with defaults filled in.
    """

    ports: PortSpec = PortSpec()

    #: The row contract: copy *i* of a data-parallel region writes only
    #: :meth:`rows` of its outputs, and the copies differ only in the rows
    #: they cover, so one copy with ``slice=(0, 1)`` computes what all
    #: *n* do.  Every real executor runs a region whose classes all set
    #: it as that one copy (:func:`~repro.core.program.one_copy_regions`);
    #: the simulator runs the spec's *n*.
    row_contract: bool = False
    #: Rows per unit a copy's span is aligned to: the ``block=`` term of
    #: the output formats (their least common multiple), 1 without one.
    #: Read from :attr:`ports` when the class is created.
    row_block: int = 1

    #: When True, the SpaceCAKE simulator executes this component even in
    #: cost-only mode (no functional data).  Set it on lightweight control
    #: components (event timers) whose *behaviour* — not data — drives the
    #: experiment; such components must tolerate streams carrying nothing.
    always_execute: bool = False

    #: Does the class override :meth:`compile_fused_pair`?  Only such a
    #: class can be the reader of a fused pair
    #: (:func:`~repro.hinch.fusion.peephole_classes`).  Worked out when
    #: the class is created.
    pair_kernel: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        formats = cls.ports.formats
        cls.row_block = math.lcm(*(
            parse_format(formats[port]).block or 1
            for port in cls.ports.outputs if port in formats
        ))
        defining = next(k for k in cls.__mro__
                        if "compile_fused_pair" in vars(k))
        cls.pair_kernel = defining is not Component

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

    def rows(self, height: int) -> tuple[int, int]:
        """This copy's rows ``[lo, hi)`` of a ``height``-row output plane.

        :func:`row_span` of :attr:`slice` in :attr:`row_block` units;
        :meth:`configure` stores it for :meth:`run`.
        """
        span = row_span(self.slice, height, self.row_block)
        if span is None:
            raise ComponentError(
                f"height {height} not divisible by block {self.row_block}")
        return span

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

        Default: bind ``key=value`` into ``self.params`` through the class's
        :meth:`~repro.core.ports.PortSpec.bind` (an undeclared key or a bad
        value is a :class:`ComponentError`); ``slice=i/n`` updates the
        slice assignment; then :meth:`configure` re-derives (e.g. the
        picture-in-picture blender moves the blended picture).
        """
        updates: dict[str, Any] = {}
        assignment = self.slice
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
                assignment = (int(index), int(total))
            else:
                updates[key] = parse_value(value)
        if updates:
            self.params = self.ports.bind(
                self.instance.instance_id, {**self.params, **updates})
        self.slice = assignment
        self.configure()

    def teardown(self) -> None:
        """Called when the component is destroyed (option disabled)."""

    # -- distributed state ----------------------------------------------------

    def checkpoint_state(self) -> Any | None:
        """Hand off the state accrued since the previous checkpoint.

        On the process backend each worker holds its own mirror of a
        component, so state accumulated by ``run`` (collected frames,
        counters) would otherwise be sharded across processes.  The
        backend calls this on the worker mirror right after every
        completed job and ships the returned delta with the job's
        record; the dispatcher folds it into its own mirror via
        :meth:`merge_state` before the job counts as done.  This is the
        only way worker state reaches the dispatcher, whose mirror is
        what ``RunResult.components`` exposes.

        Implementations must *move* the state out (snapshot-and-reset),
        or the next checkpoint would ship it again.  Return ``None`` (the
        default) when nothing accrued; the delta must be picklable.
        """
        return None

    def merge_state(self, state: Any) -> None:
        """Fold one worker mirror's :meth:`checkpoint_state` into this copy."""

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
    job at a time) serves a written slot, and a later slice copy's
    buffer, from the store's iteration frames in one Python frame.
    Everything else, and every other kind of stream, goes through the
    stream's methods, home of every check.
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
        #: port -> (alias-resolved stream, its store's iteration frames if
        #: it is a lock-free Stream else None), filled on first access
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
            stream, stream._frames if type(stream) is Stream else None
        )
        return bound

    def read(self, port: str) -> Any:
        """Read this iteration's value from an input port."""
        try:
            stream, frames = self._bound[port]
        except KeyError:
            stream, frames = self._bind(port)
        iteration = self.iteration
        if frames is not None and iteration in frames:
            values = frames[iteration][0]
            name = stream.name
            if name in values:
                stream._reads += 1
                return values[name]
        return stream.get(iteration)

    def write(self, port: str, value: Any) -> None:
        """Write this iteration's value to an output port (whole value)."""
        try:
            stream = self._bound[port][0]
        except KeyError:
            stream = self._bind(port)[0]
        stream.put(self.iteration, value, writer=self.instance.instance_id)

    def buffer(self, port: str) -> Any:
        """Get the output buffer of ``port``, shared by a writer's slice copies.

        The class declares ``port`` in ``PortSpec.buffers``, so the build
        checks that its stream has a plan.  The buffer is that stream's
        solved format
        (:attr:`Stream.expected <repro.hinch.stream.Stream.expected>`):
        the first copy to arrive allocates it, or takes back one an
        earlier iteration released (on the process backend, a shared
        plane every copy maps), and every copy then fills its own region
        in place.
        """
        try:
            stream, frames = self._bound[port]
        except KeyError:
            stream, frames = self._bind(port)
        iteration = self.iteration
        if frames is not None and iteration in frames:
            values, buffers = frames[iteration]
            name = stream.name
            if name in buffers:
                # the frame already holds this stream's buffer
                stream._writes += 1
                return values[name]
        return stream.ensure_buffer(
            iteration, writer=self.instance.instance_id)

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

"""Exception hierarchy for the XSPCL / Hinch / SpaceCAKE reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  The sub-hierarchy mirrors
the pipeline stages: parse -> validate -> expand -> schedule -> simulate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class XSPCLError(ReproError):
    """Base class for errors in XSPCL specification processing."""


class ParseError(XSPCLError):
    """The XSPCL document is not well-formed or uses unknown tags.

    Carries the source line when the underlying XML parser provides one.
    """

    def __init__(self, message: str, *, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(XSPCLError):
    """The specification is well-formed XML but semantically invalid.

    Examples: duplicate procedure names, missing ``main``, recursive
    procedure calls, wrong parameter arity, a stream with two writers.
    """


class ExpansionError(XSPCLError):
    """Procedure inlining or parallel-shape replication failed."""


class GraphError(ReproError):
    """Structural problem in a task graph (cycle, unknown node, ...)."""


class NotSeriesParallelError(GraphError):
    """An operation that requires an SP graph was given a non-SP graph."""


class SchedulingError(ReproError):
    """The Hinch scheduler reached an inconsistent state."""


class WorkerFailure(SchedulingError):
    """A worker process was lost: the run ends.

    Raised by the process backend when a worker's pipe closes, its
    process exits or a send to it fails mid-run; nothing is retried.
    ``worker`` is its slot and ``job`` the ``(iteration, node_id)`` it
    had not acknowledged (``None`` when it held no lease); the message
    carries its exit code.  Also the ``__cause__`` of a component
    exception a worker reported, with the remote traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int | None = None,
        job: tuple[int, str] | None = None,
        remote_traceback: str | None = None,
    ) -> None:
        self.worker = worker
        self.job = job
        self.remote_traceback = remote_traceback
        if remote_traceback:
            message = (
                f"{message}\n--- remote traceback (worker {worker}) ---\n"
                f"{remote_traceback.rstrip()}"
            )
        super().__init__(message)


class StreamError(ReproError):
    """Stream protocol violation (double write, read-before-write, ...)."""


class StreamFormatError(StreamError):
    """A stream buffer diverged from its reconciled format.

    Raised when a writer's geometry disagrees with the solved port
    format the analysis pass (X5xx, ``repro.analysis.formats``)
    established for the stream — or with the geometry another slice copy
    already allocated.  Carries the full context so the failure can be
    traced back to the offending XSPCL binding: the stream, the
    iteration, the writing node, and the declared-vs-observed geometry.
    """

    def __init__(
        self,
        message: str,
        *,
        stream: str | None = None,
        iteration: int | None = None,
        node: str | None = None,
        declared: tuple | None = None,
        observed: tuple | None = None,
    ) -> None:
        self.stream = stream
        self.iteration = iteration
        self.node = node
        self.declared = declared
        self.observed = observed
        super().__init__(message)


class EventError(ReproError):
    """Event queue misuse (unknown queue, bad payload, ...)."""


class ReconfigurationError(ReproError):
    """A reconfiguration request could not be applied."""


class ComponentError(ReproError):
    """A component implementation misbehaved (wrong ports, bad output...)."""


class ParamError(ComponentError):
    """An init parameter's value has the wrong type or is out of its domain."""


class RegistryError(ComponentError):
    """Unknown component class name, or duplicate registration."""


class SimulationError(ReproError):
    """The SpaceCAKE discrete-event simulation reached a bad state."""


class PredictionError(ReproError):
    """Performance prediction could not be computed for this graph."""


class CodecError(ReproError):
    """Mini-JPEG encode/decode failure (corrupt bitstream, bad marker...)."""

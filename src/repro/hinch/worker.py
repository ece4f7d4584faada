"""The worker-process half of :class:`~repro.hinch.process.ProcessRuntime`.

A worker holds mirror component instances and does nothing but execute
the ``(iteration, node)`` jobs of the leases it is sent; the dispatcher
(:mod:`repro.hinch.process`) names :func:`_worker_entry` as fork target.
The control pipe is the contract between the halves — tuples tagged by
their first element, each one a plain protocol-5 pickle
(:func:`~repro.hinch.shm.send_framed`):

* dispatcher → worker: ``lease`` (jobs and the iteration watermark),
  ``reconfigure`` (manager, request), ``splice`` (option states),
  ``rpc`` (the reply to a plane request), ``stop``;
* worker → dispatcher: ``done`` (one record per job, flagged on the
  lease's last), ``rpc_alloc`` (a plane of n bytes), ``rpc_ensure`` (a
  stream slot's shared plane), ``bye`` (the :data:`_WORKER_STAT_KEYS`
  counters), ``error``.

Component state reaches the dispatcher only in ``done`` records
(:meth:`~repro.hinch.component.Component.checkpoint_state`).  What no
message carries is fixed at fork: the installed configuration, the
dispatcher's configuration cache (a ``splice`` is a lookup in it), and
the component mirrors, adopted from the dispatcher's
:class:`~repro.hinch.engine.ComponentHost` with every reconfigure
request sent before the run.  A worker that dies ends the run
(:mod:`repro.hinch.process`); nothing here recovers.
"""

from __future__ import annotations

import signal
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import SchedulingError, StreamError
from repro.hinch.engine import ComponentHost, Configuration, NodePlans
from repro.hinch.events import Event
from repro.hinch.shm import (
    Packed, PlaneRef, SharedPlanePool, recv_framed, send_framed,
)

#: pool counters a worker reports back at shutdown (summed by dispatcher)
_WORKER_STAT_KEYS = (
    "meta_pickled_bytes",
    "oob_bytes",
    "plane_packs",
    "pickle_packs",
)


class _RemotePlanePool(SharedPlanePool):
    """Worker-side pool facade: allocation happens on the dispatcher.

    Taking a plane becomes an ``rpc_alloc`` over the control pipe; the
    inherited ``acquire`` / ``acquire_raw`` wrap the segment it names,
    and pack, unpack and segment mapping (with the attachment cache) are
    inherited too.  The worker owns no segments, so :meth:`close` never
    unlinks anything.
    """

    def __init__(self, rpc: Any) -> None:
        super().__init__(shared=True)
        self._rpc = rpc

    def _take(self, nbytes: int) -> str:
        ref: PlaneRef = self._rpc(("rpc_alloc", nbytes))
        self.stats.acquires += 1
        return ref.segment


class _RecordingBroker:
    """Collects a job's event posts for shipment with the completion."""

    def __init__(self) -> None:
        #: the current job's posts; :meth:`_Worker._run_job` swaps in a
        #: fresh list per job
        self.sink: list[tuple[str, Event]] = []

    def post(self, queue: str, event: Event) -> None:
        self.sink.append((queue, event))


class _WorkerStreams:
    """The worker's stream facade, with the :class:`StreamStore` duck type.

    One per worker — node plans bind their ports to its
    :class:`_WorkerStream` views — re-aimed at each job by :meth:`begin`.

    Reads unpack the :class:`Packed` inputs the dispatcher sent with the
    job (ndarrays come back as views into shared planes); ``put`` writes
    are packed for the completion message; ``ensure_buffer`` maps the
    shared whole-frame plane all slice copies of this (stream, iteration)
    write into.  Grouped-chain members see each other's writes locally.

    Inputs this worker already holds live — produced by an earlier job of
    the same lease, or resident from a previous lease — arrive as bare
    *names* instead of :class:`Packed` planes and are seeded straight
    from the worker's resident-slot cache: no bytes cross the pipe and no
    unpack runs.  Pre-resolved ``ensure_buffer`` planes (the dispatcher
    ships the slot's :class:`PlaneRef` once it knows the node's ensure
    profile) are mapped up front, removing the per-slice ensure RPC.
    """

    def __init__(self, worker: "_Worker") -> None:
        self.worker = worker
        self.end()

    def end(self) -> None:
        """No job in progress: let go of everything the last one mapped."""
        self.inputs = self.outputs = self.values = self.ensured = None

    def begin(
        self,
        iteration: int,
        inputs: dict[str, Packed],
        resident: tuple[str, ...] = (),
        ensured: dict[str, PlaneRef] | None = None,
    ) -> None:
        """Start a job: fresh per-job tables, seeded from the lease entry."""
        worker = self.worker
        self.inputs = inputs
        #: resolved stream name -> Packed, shipped with the completion
        self.outputs: dict[str, Packed] = {}
        #: resolved stream name -> live value (unpacked inputs, local
        #: writes visible to later members of a grouped chain)
        self.values: dict[str, Any] = {}
        #: resolved stream name -> shared ensure-buffer view
        self.ensured: dict[str, np.ndarray] = {}
        for name in resident:
            try:
                self.values[name] = worker.resident[(name, iteration)]
            except KeyError:
                raise StreamError(
                    f"stream {name!r}: dispatcher referenced a resident "
                    f"slot for iteration {iteration} this worker does not "
                    "hold"
                ) from None
        if ensured:
            for name, ref in ensured.items():
                self.ensured[name] = worker.pool.open(ref)

    def stream(self, name: str) -> "_WorkerStream":
        return _WorkerStream(self, name)


class _WorkerStream:
    __slots__ = ("ws", "name")

    def __init__(self, ws: _WorkerStreams, name: str) -> None:
        self.ws = ws
        self.name = name

    def get(self, iteration: int) -> Any:
        ws = self.ws
        value = ws.values.get(self.name)
        if value is not None:
            return value
        buf = ws.ensured.get(self.name)
        if buf is not None:
            return buf
        packed = ws.inputs.get(self.name)
        if packed is None:
            raise StreamError(
                f"stream {self.name!r}: read before write in iteration "
                f"{iteration} (input not shipped with the job)"
            )
        value = ws.worker.pool.unpack(packed)
        ws.values[self.name] = value
        return value

    def put(
        self, iteration: int, value: Any, *, writer: str | None = None
    ) -> None:
        ws = self.ws
        if self.name in ws.outputs:
            raise StreamError(
                f"stream {self.name!r}: double write in iteration {iteration}"
            )
        ws.values[self.name] = value
        ws.outputs[self.name] = ws.worker.pool.pack(value)

    def ensure_buffer(self, iteration: int, *, writer: str | None = None) -> Any:
        ws = self.ws
        buf = ws.ensured.get(self.name)
        if buf is None:
            ref: PlaneRef = ws.worker.rpc(
                ("rpc_ensure", ws.worker.current_node, self.name, iteration)
            )
            buf = ws.ensured[self.name] = ws.worker.pool.open(ref)
        return buf


class _Worker:
    """Worker-process main object: mirrors components, executes jobs."""

    def __init__(
        self,
        conn: Connection,
        worker_id: int,
        config: Configuration,
        configuration: Callable[[Mapping[str, bool]], Configuration],
        host: ComponentHost,
    ) -> None:
        self.conn = conn
        self.worker_id = worker_id
        #: the dispatcher's configuration cache
        #: (:meth:`~repro.hinch.engine.Coordinator.configuration`), copied
        #: at fork: a splice to a configuration built before the fork
        #: costs no build, one first seen after it is built here once
        self.configuration = configuration
        self.pool = _RemotePlanePool(self.rpc)
        # ``config`` is the dispatcher's installed configuration and
        # ``host`` its component mirrors (overrides installed, requests
        # applied), inherited through fork copy-on-write: a worker builds
        # nothing to start.
        self.host = host
        self.streams = _WorkerStreams(self)
        self.broker = _RecordingBroker()
        self._stop_requested = False
        self.node_plans = NodePlans(config.pg, host.live, self.streams,
                                    self.broker, self._request_stop)
        #: (stream name, iteration) -> live value produced or mapped by
        #: this worker; lets a lease reference data already here by name
        #: only.  Evicted below the dispatcher's iteration watermark.
        self.resident: dict[tuple[str, int], Any] = {}
        #: node id of the job currently executing (ensure-RPC context)
        self.current_node: str = ""

    def _request_stop(self) -> None:
        self._stop_requested = True

    # -- dispatcher RPC -----------------------------------------------------

    def rpc(self, request: tuple[Any, ...]) -> Any:
        """Round-trip to the dispatcher, absorbing interleaved control.

        The dispatcher may broadcast a ``reconfigure`` while this worker
        is mid-job (manager nodes run dispatcher-side concurrently with
        task jobs, as in the threaded backend); it is applied here and
        the wait continues.  Splice/job messages cannot interleave — the
        dispatcher only splices at quiescence and never sends jobs to a
        busy worker.
        """
        send_framed(self.conn, request, self.pool.stats)
        while True:
            reply = recv_framed(self.conn)
            if reply[0] == "rpc":
                return reply[1]
            self._handle_control(reply)

    def _handle_control(self, msg: tuple[Any, ...]) -> None:
        tag = msg[0]
        if tag == "reconfigure":
            _, manager, request = msg
            for member in self.host.program.managers[manager].members:
                component = self.host.live.get(member)
                if component is not None:
                    component.reconfigure(request)
        elif tag == "splice":
            # The dispatcher looked these option states up before
            # broadcasting; on a miss in this copy of its cache the build
            # is deterministic, so node ids and overrides agree.
            config = self.configuration(msg[1])
            self.host.overrides = config.overrides
            # Mirrors a splice creates start from their descriptors, like
            # the dispatcher's: no request sent before they existed.
            self.host.splice(config.pg.active_components, {})
            self.node_plans = self.node_plans.spliced(config.pg)
        else:  # pragma: no cover - protocol error
            raise SchedulingError(f"worker got unexpected message {tag!r}")

    # -- job execution ------------------------------------------------------

    def _run_job(
        self,
        iteration: int,
        node_id: str,
        inputs: dict[str, Packed],
        resident: tuple[str, ...],
        ensured: dict[str, PlaneRef] | None,
    ) -> tuple:
        plan = self.node_plans[node_id]
        ws = self.streams
        ws.begin(iteration, inputs, resident, ensured)
        events = self.broker.sink = []
        self._stop_requested = False
        self.current_node = node_id
        start = time.perf_counter()
        plan.run(iteration)
        end = time.perf_counter()
        # Checkpoint the state this job accrued: the delta rides on the
        # completion message (NOT through pool.pack — checkpoints are
        # control metadata, not stream traffic) and is merged into the
        # dispatcher mirror as the record is applied.
        state_updates: dict[str, Any] = {}
        for component in plan.components:
            delta = component.checkpoint_state()
            if delta is not None:
                state_updates[component.instance.instance_id] = delta
        # Keep this job's products resident: a later job of this lease —
        # or of a future lease, until the iteration retires — can then be
        # handed the value by name, with no plane re-shipped and no
        # second unpack.
        for name in ws.outputs:
            self.resident[(name, iteration)] = ws.values[name]
        for name, buf in ws.ensured.items():
            self.resident[(name, iteration)] = buf
        outputs = ws.outputs
        ws.end()
        return (iteration, node_id, outputs, events, self._stop_requested,
                start, end, state_updates)

    def _run_lease(self, entries: list[tuple], watermark: int | None) -> None:
        """Execute a batch of jobs, streaming a record back per job.

        The lease runs strictly in order — later entries may read streams
        produced by earlier ones (worker-resident, referenced by name).
        Each completion is announced as soon as it happens (so the
        dispatcher can release dependent work to *other* workers without
        waiting for the whole lease); the last record is flagged as such.
        """
        if watermark is not None:
            for key in [k for k in self.resident if k[1] < watermark]:
                del self.resident[key]
        last = len(entries) - 1
        for index, entry in enumerate(entries):
            record = self._run_job(*entry)
            send_framed(self.conn, ("done", record, index == last),
                        self.pool.stats)

    # -- main loop -----------------------------------------------------------

    def main(self) -> None:
        try:
            while True:
                msg = recv_framed(self.conn)
                tag = msg[0]
                if tag == "lease":
                    self._run_lease(msg[1], msg[2])
                elif tag == "stop":
                    stats = self.pool.stats.as_dict()
                    send_framed(
                        self.conn,
                        ("bye", {k: stats[k] for k in _WORKER_STAT_KEYS}),
                        self.pool.stats,
                    )
                    return
                else:
                    self._handle_control(msg)
        except BaseException as exc:
            tb = traceback.format_exc()
            # an unpicklable exception still reports its traceback
            for report in (exc, None):
                try:
                    send_framed(self.conn, ("error", report, tb),
                                self.pool.stats)
                    break
                except Exception:
                    pass
        finally:
            self.pool.close_attachments()
            self.conn.close()


def _worker_entry(dispatcher_ends: list, *args: Any) -> None:
    """Fork target: close the inherited dispatcher pipe ends, then serve a
    :class:`_Worker` built from the remaining arguments.  SIGTERM goes
    back to its default action if the run mapped it: the dispatcher owns
    and unlinks every segment, so a worker has nothing to clean up."""
    if signal.getsignal(signal.SIGTERM) is signal.default_int_handler:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for conn in dispatcher_ends:
        conn.close()
    _Worker(*args).main()

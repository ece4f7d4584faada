"""Hinch — the run time system underneath XSPCL.

Hinch (Nijhuis et al., Euro-Par '06) "provides automatic load balancing
using a central job queue.  It runs the application in a data flow style
by putting a job in this queue for each component that is ready to be
run.  Furthermore, Hinch provides generic functions for streaming and
event communication."

This package reproduces those responsibilities.  Building blocks:

* :mod:`repro.hinch.stream` — streaming communication (whole-frame slots
  per iteration, shared by data-parallel copies; each stream recycles
  the buffers it allocates);
* :mod:`repro.hinch.events` — asynchronous event queues;
* :mod:`repro.hinch.component` — the component base class, its
  reconfiguration interface, and the per-job context API;
* :mod:`repro.hinch.jobqueue` — the worker threads' central job queue
  (every single-threaded loop keeps the same FIFO in a deque);
* :mod:`repro.hinch.scheduler` — backend-agnostic dataflow state machine:
  per-iteration dependency counting, pipeline parallelism across
  iterations, manager-driven reconfiguration (halt, drain, splice,
  resume);
* :mod:`repro.hinch.manager` — manager invocation (event handlers);
* :mod:`repro.hinch.shm` — the process backend's shared-memory plane
  pool, zero-copy pack/unpack, plain-pickle control-pipe framing;
* :mod:`repro.hinch.grouping`, :mod:`repro.hinch.fusion` — linear chains
  scheduled as one job (a ``SimRuntime`` option), producer→consumer
  pairs one kernel runs (every threaded and process build), and chains
  compiled to one job (every process build);
* :mod:`repro.hinch.tracing` — per-job execution traces.

One coordination core, :mod:`repro.hinch.engine`: ``build_configuration``
is the only graph build (format solve → buffer expectations → converter
insertion → pair fusion → grouping → chain fusion), ``NodePlan`` is the
only job body (a node's component runs and reusable contexts, compiled
per configuration) and ``Coordinator`` implements the reconfiguration
controller and the quiescent-splice protocol once.

Three executors subclass the coordinator and add only how jobs run:
:mod:`repro.hinch.runtime` (the correctness reference: the caller's
thread at ``nodes=1``, GIL-bound worker threads over the central queue at
``nodes >= 2``), :mod:`repro.hinch.process` with :mod:`repro.hinch.worker`
(dispatcher and a fixed pool of worker processes: job leases over pipes,
frames in shared memory, :mod:`repro.hinch.faults` recovery) and
:mod:`repro.spacecake.simulator` (virtual cores on the SpaceCAKE machine
model: the performance-curve backend).
"""

from repro.hinch.events import Event, EventBroker, EventQueue, EventStormWarning
from repro.hinch.faults import FaultInjector, FaultSpec, parse_faults
from repro.hinch.stream import Stream, StreamStore
from repro.hinch.component import Component, JobContext
from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.scheduler import DataflowScheduler, ReconfigPlan, SchedulerHooks
from repro.hinch.runtime import RunResult, ThreadedRuntime
from repro.hinch.process import ProcessRuntime
from repro.hinch.shm import Packed, PlaneRef, SharedPlanePool
from repro.hinch.grouping import group_linear_chains
from repro.hinch.tracing import TraceEvent, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "EventBroker",
    "EventStormWarning",
    "FaultSpec",
    "FaultInjector",
    "parse_faults",
    "Stream",
    "StreamStore",
    "Component",
    "JobContext",
    "Job",
    "JobQueue",
    "DataflowScheduler",
    "SchedulerHooks",
    "ReconfigPlan",
    "ThreadedRuntime",
    "ProcessRuntime",
    "RunResult",
    "SharedPlanePool",
    "Packed",
    "PlaneRef",
    "group_linear_chains",
    "TraceEvent",
    "Tracer",
]

"""The central job queue (paper: "automatic load balancing using a
central job queue") that worker threads share.

A job is one execution of one task-graph node in one iteration.  The
queue is a plain FIFO guarded by one lock (its condition variable is
touched only while a worker is actually blocked): any idle worker
pops the oldest ready job, which is Hinch's load-balancing policy — work
goes wherever there is a free processor, no affinity, no stealing
hierarchy.  (Cache-affinity effects of this policy are modelled by the
SpaceCAKE cost model, not here.)

Only ``ThreadedRuntime(nodes >= 2)`` needs the lock.  Every
single-threaded loop — the inline ``nodes=1`` executor, the process
backend's dispatcher and the simulator — keeps the same FIFO in a plain
``collections.deque``.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from typing import NamedTuple, Sequence

from repro.errors import SchedulingError

__all__ = ["Job", "JobQueue", "make_job"]


class Job(NamedTuple):
    """One (iteration, node) execution.

    A named tuple: it compares, hashes and pickles as its pair, which is
    also how a job crosses the process backend's pipe.  The scheduler
    makes one per ready job on every backend (a simulation sweep,
    millions), so it builds them with :data:`make_job`, tuple's own
    constructor, and a ready job runs no Python-level ``__new__``.  Jobs
    are never ordered by the runtime: the queue is FIFO and the
    simulator's event heap orders by (time, seq).
    """

    iteration: int
    node_id: str


#: ``make_job((iteration, node_id))``: a :class:`Job` with no Python frame
make_job = partial(tuple.__new__, Job)


class JobQueue:
    """Thread-safe FIFO with two distinct shutdown modes.

    * :meth:`close` — *abort*.  Workers stop as soon as the remaining
      items run out, and any job pushed afterwards is silently dropped.
      This is the failure path: a worker crashed, whatever completions
      are still in flight no longer matter.
    * :meth:`drain` — *graceful sentinel*.  Called only when the
      scheduler reports ``done`` (every admitted iteration completed, so
      no further job can ever become ready).  Remaining items are still
      served; once empty, every ``pop`` returns ``None``.  A ``push``
      after drain is a scheduling bug — completed work would be lost —
      and raises :class:`~repro.errors.SchedulingError` instead of
      dropping the job on the floor.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: threads blocked in :meth:`pop`, counted under the lock so a
        #: push with nobody waiting skips the condition variable entirely
        self._waiters = 0
        self._items: deque[Job] = deque()
        self._closed = False
        self._draining = False

    def push(self, job: Job) -> int:
        """Enqueue one job; returns the number accepted (0 after close)."""
        return self.push_all((job,))

    def push_all(self, jobs: Sequence[Job]) -> int:
        """Enqueue jobs; returns the number accepted (0 after close)."""
        if not jobs:
            return 0
        with self._lock:
            if self._closed:
                return 0  # aborted: late completions are dropped
            if self._draining:
                raise SchedulingError(
                    f"{len(jobs)} job(s) pushed after drain(): the "
                    "scheduler reported done, so these completions would "
                    "be lost"
                )
            self._items.extend(jobs)
            accepted = len(jobs)
            if self._waiters:
                self._not_empty.notify(accepted)
            return accepted

    def pop(self, timeout: float | None = None) -> Job | None:
        """Block until a job is available; None on shutdown or timeout."""
        with self._lock:
            items = self._items
            while not items and not self._closed and not self._draining:
                self._waiters += 1
                try:
                    signalled = self._not_empty.wait(timeout=timeout)
                finally:
                    self._waiters -= 1
                if not signalled:
                    return None
            if items:
                return items.popleft()
            return None  # shut down and drained

    def close(self) -> None:
        """Abort: stop serving once empty, drop any further push."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def drain(self) -> None:
        """Graceful shutdown: serve what remains, then sentinel workers.

        Only valid once the scheduler is ``done`` — after this call, a
        push is an error rather than a silent drop.
        """
        with self._lock:
            self._draining = True
            self._not_empty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

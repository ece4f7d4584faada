"""The central job queue (paper: "automatic load balancing using a
central job queue").

A job is one execution of one task-graph node in one iteration.  The
queue is a plain FIFO guarded by one lock (its condition variable is
touched only while a worker is actually blocked): any idle worker
pops the oldest ready job, which is Hinch's load-balancing policy — work
goes wherever there is a free processor, no affinity, no stealing
hierarchy.  (Cache-affinity effects of this policy are modelled by the
SpaceCAKE cost model, not here.)
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulingError

__all__ = ["Job", "JobQueue"]


@dataclass(frozen=True, slots=True)
class Job:
    """One (iteration, node) execution.

    ``slots=True``: a simulation sweep allocates one Job per node per
    iteration (millions across the figure sweeps), so the per-instance
    dict is pure overhead.  Jobs are never ordered — the queue is FIFO
    and the simulator's event heap orders by (time, seq) — so no
    ``order=True``.
    """

    iteration: int
    node_id: str


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
        self._pushed = 0

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
            self._pushed += accepted
            if self._waiters:
                self._not_empty.notify(accepted)
            return accepted

    def push_front(self, job: Job) -> int:
        """Re-enqueue a recovered job at the FIFO head (failure retry).

        A retry jumps the queue so the re-run of iteration *k*'s node
        does not queue behind work from deeper iterations that (directly
        or via the pipeline) depends on it.  Unlike :meth:`push`, this is
        legal while draining: a retry re-issues a job the scheduler still
        counts as dispatched-but-incomplete, so ``drain()`` (which
        requires the scheduler to be *done*) can never have happened with
        such a job outstanding — tolerating the call keeps the failure
        path free of ordering assumptions about shutdown.
        """
        with self._lock:
            if self._closed:
                return 0  # aborted: the retry no longer matters
            self._items.appendleft(job)
            self._pushed += 1
            if self._waiters:
                self._not_empty.notify()
            return 1

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

    def try_pop(self) -> Job | None:
        with self._lock:
            if self._items:
                return self._items.popleft()
            return None

    def try_pop_where(self, match, stop=None) -> Job | None:
        """Pop the first queued job satisfying ``match``, scanning from
        the head; abandon the scan (returning ``None``) at the first job
        for which ``stop`` is true.

        This is the lease-assembly primitive of the process dispatcher:
        it lets batching pull additional *ready* jobs into a worker's
        lease (preferring affinity matches) without ever reordering
        across a control-node job — ``stop`` marks those, so manager
        invocations keep their FIFO position exactly as at ``--batch 1``.
        """
        with self._lock:
            for index, job in enumerate(self._items):
                if stop is not None and stop(job):
                    return None
                if match(job):
                    del self._items[index]
                    return job
            return None

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

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def total_pushed(self) -> int:
        with self._lock:
            return self._pushed

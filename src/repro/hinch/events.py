"""Asynchronous event communication (paper §2.3b, §3.4).

Events are "an asynchronous communication primitive for small pieces of
data": a component may post an event at any moment, independent of the
current iteration; managers poll their queue when invoked at subgraph
entry/exit and react by toggling options, forwarding, or broadcasting
reconfiguration requests.

Queues are named and owned by an :class:`EventBroker`; sending components
receive the queue *name* through an initialization parameter (exactly the
paper's prototype mechanism) and resolve it through the broker at post
time.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EventError

__all__ = [
    "Event",
    "EventQueue",
    "EventBroker",
    "EventStormWarning",
    "HIGH_WATER",
]

#: per-queue pending-event count that triggers a storm warning.  Normal
#: applications hold a handful of events between manager polls;
#: thousands pending means nobody is polling the queue, or a forward
#: loop between managers is amplifying events (lint X405 catches the
#: statically visible case).
HIGH_WATER = 10_000


class EventStormWarning(RuntimeWarning):
    """An event queue crossed its high-water mark between polls."""


@dataclass(frozen=True)
class Event:
    """A small asynchronous message.

    ``name`` selects the manager handler; ``payload`` is free-form (used
    e.g. as the reconfiguration request detail); ``source`` identifies
    the posting component (or ``"external"`` for user input injected by
    the harness).
    """

    name: str
    payload: Any = None
    source: str = "external"


class EventQueue:
    """Thread-safe FIFO of events.

    The queue is unbounded by design (posting must never block a
    component), but it *watches* its own depth: crossing
    :data:`HIGH_WATER` pending events between polls emits an
    :class:`EventStormWarning`, and the threshold doubles after each
    warning so a runaway storm logs O(log n) warnings instead of one per
    post.  Draining the queue (:meth:`poll`) re-arms the original
    threshold.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._warn_at = HIGH_WATER
        self._lock = threading.Lock()
        self._items: list[Event] = []
        self._posted = 0

    def post(self, event: Event) -> None:
        warn_depth = None
        with self._lock:
            self._items.append(event)
            self._posted += 1
            if len(self._items) >= self._warn_at:
                warn_depth = len(self._items)
                self._warn_at *= 2
        if warn_depth is not None:
            warnings.warn(
                f"event queue {self.name!r} holds {warn_depth} undelivered "
                f"events (high-water {HIGH_WATER}): no manager is "
                "polling it, or a manager forward loop is amplifying events "
                "(lint X405 detects the static case)",
                EventStormWarning,
                stacklevel=2,
            )

    def poll(self) -> list[Event]:
        """Drain and return all pending events (oldest first)."""
        with self._lock:
            items, self._items = self._items, []
            self._warn_at = HIGH_WATER
        return items

    def peek_count(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def total_posted(self) -> int:
        """Number of events ever posted (for tests and statistics)."""
        with self._lock:
            return self._posted

    def __repr__(self) -> str:
        return f"EventQueue({self.name!r}, pending={self.peek_count()})"


class EventBroker:
    """Name -> queue directory; creates queues on first use.

    Queue names are global to an application run (see expander notes);
    parametrizing a procedure with different queue names yields distinct
    queues.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queues: dict[str, EventQueue] = {}

    def queue(self, name: str) -> EventQueue:
        if not name:
            raise EventError("event queue name must be non-empty")
        with self._lock:
            queue = self._queues.get(name)
            if queue is None:
                queue = EventQueue(name)
                self._queues[name] = queue
            return queue

    def post(self, queue_name: str, event: Event) -> None:
        self.queue(queue_name).post(event)

    @property
    def queue_names(self) -> list[str]:
        with self._lock:
            return list(self._queues)

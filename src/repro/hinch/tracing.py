"""Execution tracing: who ran what, when, where.

Both backends record a :class:`TraceEvent` per executed job — wall-clock
seconds in the threaded runtime, virtual cycles in the simulator.  The
trace feeds utilization statistics, the benchmark reports, and debugging
(export to a Gantt-style text chart).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = ["TraceEvent", "Tracer", "ATTRIBUTION_KINDS", "CONTROL_KINDS"]

#: Event kinds that *attribute* time already covered by another event
#: (fused-chain members run inside their fused job's span).  Occupancy
#: analytics skip them or every fused second would count twice.
ATTRIBUTION_KINDS = frozenset({"fused_member"})

#: Zero-duration marker events recording a runtime decision rather than
#: executed work — the auto-tuner stamps one per reconfiguration it
#: applies.  Excluded from busy/occupancy accounting alongside
#: :data:`ATTRIBUTION_KINDS`; they exist for the timeline, not the sums.
CONTROL_KINDS = frozenset({"autotune"})


@dataclass(frozen=True, slots=True)
class TraceEvent:
    node_id: str
    iteration: int
    worker: int
    start: float
    end: float
    kind: str = "task"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe append-only trace log."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        # No-op fast path: bail before touching the lock when disabled.
        # Hot callers (the simulator completes millions of jobs per
        # sweep) additionally check ``enabled`` *before* constructing the
        # TraceEvent, so a disabled tracer costs one attribute read.
        if not self.enabled:
            return
        with self._lock:
            self._events.append(event)

    def record_job(
        self,
        node_id: str,
        iteration: int,
        worker: int,
        start: float,
        end: float,
        kind: str = "task",
        member_times: Iterable[tuple[str, float, float]] | None = None,
    ) -> None:
        """One executed job and — for a fused chain — its members' spans.

        ``member_times`` is ``(instance id, start, end)`` per constituent,
        in the job's own clock domain; they are recorded as
        ``fused_member`` events (attribution only, never busy time).
        Callers check :attr:`enabled` first, before reading any clock.
        """
        events = [TraceEvent(node_id, iteration, worker, start, end, kind)]
        for member_id, m_start, m_end in member_times or ():
            events.append(TraceEvent(member_id, iteration, worker, m_start,
                                     m_end, "fused_member"))
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- analytics ----------------------------------------------------------

    def busy_time(self, worker: int | None = None) -> float:
        """Total busy time, optionally for one worker."""
        return sum(
            e.duration
            for e in self.events
            if e.kind not in ATTRIBUTION_KINDS
            and e.kind not in CONTROL_KINDS
            and (worker is None or e.worker == worker)
        )

    def makespan(self) -> float:
        events = self.events
        if not events:
            return 0.0
        return max(e.end for e in events) - min(e.start for e in events)

    def utilization(self, workers: int) -> float:
        """Busy fraction across ``workers`` over the makespan.

        Degenerate denominators — an empty trace, a zero-length span, or
        zero workers (lazy spawn can finish a trivial run before any
        worker forks) — yield 0.0 rather than dividing by zero.
        """
        span = self.makespan()
        if span <= 0 or workers <= 0:
            return 0.0
        return self.busy_time() / (span * workers)

    def per_worker_busy(self) -> dict[int, float]:
        """Busy seconds per worker — the fig-8-style occupancy curve.

        Dispatcher-executed control jobs (manager invocations) appear
        under worker ``-1`` on the process backend.
        """
        totals: dict[int, float] = {}
        for e in self.events:
            if e.kind in ATTRIBUTION_KINDS or e.kind in CONTROL_KINDS:
                continue
            totals[e.worker] = totals.get(e.worker, 0.0) + e.duration
        return dict(sorted(totals.items()))

    def workers_seen(self) -> frozenset[int]:
        """Worker ids that executed real work (control jobs excluded).

        With lazy spawn ``--workers N`` may fork fewer than N processes;
        occupancy denominators must count the workers that *ran*, not the
        configured ceiling.  Dispatcher control jobs (worker ``-1``) and
        decision markers do not make a worker "live".
        """
        return frozenset(
            e.worker
            for e in self.events
            if e.worker >= 0
            and e.kind not in ATTRIBUTION_KINDS
            and e.kind not in CONTROL_KINDS
        )

    def kind_counts(self) -> dict[str, int]:
        """Events per ``kind`` — e.g. how many retries/respawns a run saw."""
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def per_node_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for e in self.events:
            totals[e.node_id] = totals.get(e.node_id, 0.0) + e.duration
        return totals

    def gantt(self, *, width: int = 72, workers: int | None = None) -> str:
        """Coarse ASCII Gantt chart (one row per worker)."""
        events = self.events
        if not events:
            return "(empty trace)"
        t0 = min(e.start for e in events)
        t1 = max(e.end for e in events)
        span = max(t1 - t0, 1e-12)
        rows = sorted({e.worker for e in events})
        if workers is not None:
            rows = list(range(workers))
        lines = []
        for w in rows:
            cells = [" "] * width
            for e in events:
                if e.worker != w:
                    continue
                lo = int((e.start - t0) / span * (width - 1))
                hi = max(lo, int((e.end - t0) / span * (width - 1)))
                mark = e.node_id[0] if e.node_id else "#"
                for i in range(lo, hi + 1):
                    cells[i] = mark
            lines.append(f"w{w:>2} |{''.join(cells)}|")
        return "\n".join(lines)


def merge_traces(traces: Iterable[Tracer]) -> Tracer:
    """Combine several traces into one (for multi-phase experiments)."""
    merged = Tracer()
    for t in traces:
        for e in t.events:
            merged.record(e)
    return merged

"""In-memory spans recorded by the benchmark around calls into each layer.

The traced pass wraps every call into a public function of the system in
:meth:`Spans.span`; Hinch's own ``RunResult.trace.events`` are attached
as child spans on per-worker tracks.  Nothing is written until the pass
ends, when :meth:`Spans.write_chrome` dumps Chrome trace-event JSON
(open it in https://ui.perfetto.dev or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    #: shared by all spans of one workload
    workload: str
    track: str = "bench"
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[int]:
        """Record ``name`` around the body; yields the span's index."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.workload,
                    args=args)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def attach_events(self, parent: int, events: Iterable[Any],
                      track: str) -> None:
        """Attach Hinch ``TraceEvent``s (same clock) as children of a span."""
        for e in events:
            self.spans.append(Span(
                e.node_id, e.start, e.end, parent, self.workload,
                track=f"{track}/worker{e.worker}",
                args={"iteration": e.iteration, "kind": e.kind},
            ))

    def _children(self) -> dict[int, list[Span]]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return children

    def self_time(self, index: int,
                  children: dict[int, list[Span]] | None = None) -> float:
        """The span's duration minus the part its child spans cover."""
        if children is None:
            children = self._children()
        span = self.spans[index]
        covered, cursor = 0.0, span.start
        for start, end in sorted(
            (s.start, min(s.end, span.end)) for s in children.get(index, ())
        ):
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        return span.duration - covered

    def self_times(self) -> dict[str, float]:
        """Self seconds per benchmark-track span name."""
        children = self._children()
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.track == "bench":
                totals[span.name] = totals.get(span.name, 0.0) + (
                    self.self_time(index, children))
        return totals

    def write_chrome(self, path: Path) -> None:
        tracks = {t: i for i, t in enumerate(
            dict.fromkeys(s.track for s in self.spans))}
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": track}}
            for track, tid in tracks.items()
        ]
        origin = min((s.start for s in self.spans), default=0.0)
        for index, s in enumerate(self.spans):
            events.append({
                "name": s.name, "cat": s.workload, "ph": "X", "pid": 1,
                "tid": tracks[s.track],
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"id": index, "parent": s.parent,
                         "workload": s.workload, **s.args},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))

"""Synthetic components for runtime tests (no video dependency)."""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.core import AppBuilder
from repro.core.ports import PortSpec
from repro.hinch.component import Component, JobContext


class Producer(Component):
    """Writes ``base + iteration`` to its output each iteration."""

    ports = PortSpec(outputs=("output",), optional_params=("base", "limit"))

    def run(self, job: JobContext) -> None:
        limit = self.param("limit")
        if limit is not None and job.iteration >= int(limit):
            job.request_stop()
        job.write("output", int(self.param("base", 0)) + job.iteration)


class Doubler(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",))

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input") * 2)


class AddConst(Component):
    ports = PortSpec(
        inputs=("input",), outputs=("output",), optional_params=("k", "queue", "period", "event")
    )

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input") + int(self.param("k", 1)))


class Adder(Component):
    ports = PortSpec(inputs=("a", "b"), outputs=("output",))

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("a") + job.read("b"))


class Collector(Component):
    """Sink that appends every received value to ``self.values``."""

    ports = PortSpec(inputs=("input",))

    def __init__(self, instance):
        super().__init__(instance)
        self.values: list = []
        self._lock = threading.Lock()

    def run(self, job: JobContext) -> None:
        value = job.read("input")
        with self._lock:
            # Iterations complete in order but jobs may run out of order
            # across iterations; store (iteration, value) and sort later.
            self.values.append((job.iteration, value))

    def checkpoint_state(self) -> list | None:
        # snapshot-and-reset: on the process backend each job's values
        # move to the dispatcher's mirror, so they survive the worker
        with self._lock:
            delta, self.values = self.values, []
        return delta or None

    def merge_state(self, state: list) -> None:
        with self._lock:
            self.values.extend(state)

    def ordered(self) -> list:
        with self._lock:
            return [v for _, v in sorted(self.values)]


class ArraySource(Component):
    """Emits a fresh float array of ``size`` filled with the iteration."""

    ports = PortSpec(outputs=("output",), optional_params=("size",))

    def run(self, job: JobContext) -> None:
        size = int(self.param("size", 64))
        job.write("output", np.full(size, float(job.iteration)))


class SliceScaler(Component):
    """Data-parallel scaler: each copy multiplies its region by ``factor``."""

    ports = PortSpec(
        inputs=("input",), outputs=("output",), optional_params=("factor",)
    )

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output", lambda: np.empty_like(data))
        index, total = self.slice if self.slice else (0, 1)
        n = len(data)
        lo = index * n // total
        hi = (index + 1) * n // total
        out[lo:hi] = data[lo:hi] * float(self.param("factor", 2))
        job.note_written((hi - lo) * data.itemsize)


class HaloSmoother(Component):
    """Crossdep consumer: 3-point average needing neighbour slices."""

    ports = PortSpec(inputs=("input",), outputs=("output",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output", lambda: np.empty_like(data))
        index, total = self.slice if self.slice else (0, 1)
        n = len(data)
        lo = index * n // total
        hi = (index + 1) * n // total
        padded = np.pad(data, 1, mode="edge")
        for i in range(lo, hi):
            out[i] = (padded[i] + padded[i + 1] + padded[i + 2]) / 3.0
        job.note_written((hi - lo) * data.itemsize)


class EventSender(Component):
    """Posts an event to ``queue`` every ``period`` iterations."""

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        optional_params=("queue", "period", "event"),
    )

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))
        period = int(self.param("period", 12))
        if (job.iteration + 1) % period == 0:
            job.post_event(self.param("queue", "ui"), self.param("event", "tick"))


class Reconfigurable(Component):
    """Records reconfiguration requests for assertions."""

    ports = PortSpec(inputs=("input",), outputs=("output",))

    def __init__(self, instance):
        super().__init__(instance)
        self.requests: list[str] = []

    def reconfigure(self, request: str) -> None:
        self.requests.append(request)
        super().reconfigure(request)

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))


class LifecycleProbe(Component):
    """Counts setup/teardown/run calls; used for splice tests."""

    ports = PortSpec(inputs=("input",), outputs=("output",))
    instances: list["LifecycleProbe"] = []

    def __init__(self, instance):
        super().__init__(instance)
        self.setup_count = 0
        self.teardown_count = 0
        self.run_count = 0
        LifecycleProbe.instances.append(self)

    def setup(self) -> None:
        self.setup_count += 1

    def teardown(self) -> None:
        self.teardown_count += 1

    def run(self, job: JobContext) -> None:
        self.run_count += 1
        job.write("output", job.read("input") + 100)


class Sleeper(Component):
    """A kernel that blocks instead of computing.

    ``time.sleep`` releases the GIL and occupies no core, so N concurrent
    copies finish in one sleep period on any machine: throughput scaling
    over this stage depends on the runtime's dispatch path alone.
    """

    ports = PortSpec(inputs=("input",), outputs=("output",),
                     required_params=("ms",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output", shape=data.shape, dtype=data.dtype)
        time.sleep(float(self.require_param("ms")) / 1000.0)
        index, total = self.slice if self.slice else (0, 1)
        out[index::total] = data[index::total]


def sleep_app(*, slices: int, sleep_ms: float) -> AppBuilder:
    """Source -> sliced blocking stage (``slices`` copies) -> sink."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "array_source", streams={"output": "raw"},
                   params={"size": 8})
    with main.parallel("slice", n=slices):
        main.component("work", "sleeper",
                       streams={"input": "raw", "output": "out"},
                       params={"ms": sleep_ms})
    main.component("snk", "collector", streams={"input": "out"})
    return b


def shm_entries() -> set[str]:
    """The shared-memory segments on this host (a leak check's snapshot)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


REGISTRY: dict[str, type[Component]] = {
    "producer": Producer,
    "doubler": Doubler,
    "addconst": AddConst,
    "adder": Adder,
    "collector": Collector,
    "array_source": ArraySource,
    "slice_scaler": SliceScaler,
    "halo_smoother": HaloSmoother,
    "event_sender": EventSender,
    "reconfigurable": Reconfigurable,
    "lifecycle_probe": LifecycleProbe,
    "sleeper": Sleeper,
}

PORTS = {name: cls.ports for name, cls in REGISTRY.items()}

"""Synthetic components for runtime tests (no video dependency)."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np

from repro.core import AppBuilder
from repro.core.ports import Param, PortSpec
from repro.hinch.component import Component, JobContext

#: the ports of an element-wise stage: its output plane is its input's,
#: so a sliced stage downstream of it solves wherever its input does
VECTOR = {"input": "kind=plane shape=?n dtype=?T",
          "output": "kind=plane shape=?n dtype=?T"}


class Producer(Component):
    """Writes ``base + iteration`` to its output each iteration."""

    ports = PortSpec(outputs=("output",), params={
        "base": Param("int", default=0), "limit": Param("int")})

    def run(self, job: JobContext) -> None:
        limit = self.params.get("limit")
        if limit is not None and job.iteration >= limit:
            job.request_stop()
        job.write("output", self.params["base"] + job.iteration)


class Doubler(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",), formats=VECTOR)

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input") * 2)


class AddConst(Component):
    ports = PortSpec(inputs=("input",), outputs=("output",), params={
        "k": Param("int", default=1), "queue": Param("str"),
        "period": Param("int"), "event": Param("str")}, formats=VECTOR)

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input") + self.params["k"])


class Adder(Component):
    ports = PortSpec(inputs=("a", "b"), outputs=("output",), formats={
        "a": VECTOR["input"], "b": VECTOR["input"],
        "output": VECTOR["output"]})

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("a") + job.read("b"))


class Collector(Component):
    """Sink that appends every received value to ``self.values``.

    Arrays are copied: a stream recycles its buffers once their iteration
    retires, and a collecting sink keeps what it read (DESIGN.md §6).
    """

    ports = PortSpec(inputs=("input",), formats={"input": "kind=*"})

    def __init__(self, instance):
        super().__init__(instance)
        self.values: list = []
        self._lock = threading.Lock()

    def run(self, job: JobContext) -> None:
        value = job.read("input")
        if isinstance(value, np.ndarray):
            value = value.copy()
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

    ports = PortSpec(outputs=("output",),
                     params={"size": Param("int", default=64)},
                     formats={"output": "kind=plane shape=size dtype=float64"})

    def run(self, job: JobContext) -> None:
        size = self.params["size"]
        job.write("output", np.full(size, float(job.iteration)))


class DyingSource(ArraySource):
    """An :class:`ArraySource` whose copy in a worker process ends that
    process at iteration ``at``: ``os._exit(3)``, or SIGKILL with
    ``kill``.  The copy in the process that built it never dies."""

    ports = PortSpec(outputs=("output",), params={
        "size": Param("int", default=64), "at": Param("int", default=0),
        "kill": Param("bool", default=False)},
        formats=ArraySource.ports.formats)

    def __init__(self, instance):
        super().__init__(instance)
        self.home = os.getpid()

    def run(self, job: JobContext) -> None:
        if job.iteration == self.params["at"] and os.getpid() != self.home:
            if self.params["kill"]:
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        super().run(job)


class SliceScaler(Component):
    """Data-parallel scaler: each copy multiplies its region by ``factor``."""

    ports = PortSpec(inputs=("input",), outputs=("output",),
                     params={"factor": Param("float", default=2.0)},
                     formats=VECTOR, buffers=("output",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output")
        index, total = self.slice if self.slice else (0, 1)
        n = len(data)
        lo = index * n // total
        hi = (index + 1) * n // total
        out[lo:hi] = data[lo:hi] * self.params["factor"]


class HaloSmoother(Component):
    """Crossdep consumer: 3-point average needing neighbour slices."""

    ports = PortSpec(inputs=("input",), outputs=("output",), formats=VECTOR,
                     buffers=("output",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output")
        index, total = self.slice if self.slice else (0, 1)
        n = len(data)
        lo = index * n // total
        hi = (index + 1) * n // total
        padded = np.pad(data, 1, mode="edge")
        for i in range(lo, hi):
            out[i] = (padded[i] + padded[i + 1] + padded[i + 2]) / 3.0


class EventSender(Component):
    """Posts an event to ``queue`` every ``period`` iterations."""

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={"queue": Param("str", default="ui"),
                "period": Param("int", lo=1, default=12),
                "event": Param("str", default="tick")},
    )

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))
        params = self.params
        if (job.iteration + 1) % params["period"] == 0:
            job.post_event(params["queue"], params["event"])


class Reconfigurable(Component):
    """Records reconfiguration requests for assertions."""

    ports = PortSpec(inputs=("input",), outputs=("output",),
                     params={"pos": Param("str")})

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
                     params={"ms": Param("float", required=True)},
                     formats=VECTOR, buffers=("output",))

    def run(self, job: JobContext) -> None:
        data = job.read("input")
        out = job.buffer("output")
        time.sleep(self.params["ms"] / 1000.0)
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


def keep_copies(registry: dict[str, type[Component]],
                *names: str) -> dict[str, type[Component]]:
    """``registry`` with each of ``names`` subclassed without the row
    contract: its slice copies stay copies on every executor, so their
    jobs share one output plane, across workers on processes."""
    return {**registry, **{
        name: type(registry[name].__name__, (registry[name],),
                   {"row_contract": False})
        for name in names}}


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
    "dying_source": DyingSource,
    "slice_scaler": SliceScaler,
    "halo_smoother": HaloSmoother,
    "event_sender": EventSender,
    "reconfigurable": Reconfigurable,
    "lifecycle_probe": LifecycleProbe,
    "sleeper": Sleeper,
}

PORTS = {name: cls.ports for name, cls in REGISTRY.items()}

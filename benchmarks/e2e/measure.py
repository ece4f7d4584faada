"""The untraced pass over one workload: output oracle + end-to-end metrics.

Everything is measured from outside the system: XML text goes in through
the public parser, and numbers come from timing public calls and from the
public ``RunResult``/``SimResult`` fields.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import hygiene
from workloads import (
    CONFIGS, ORACLE_FRAMES, PIPELINE_DEPTH, WIDTH, Workload,
)

from repro.components.registry import default_ports, default_registry
from repro.core.expander import expand
from repro.core.parser import parse_string
from repro.hinch import ProcessRuntime, ThreadedRuntime
from repro.spacecake import SimRuntime

HERE = Path(__file__).resolve().parent

#: per-run wall-clock limit; a run that hits it fails and ends the child
RUN_TIMEOUT_S = 60
#: ``setup_s`` is the median of 21 bursts of 5 fresh builds, the bursts
#: spaced evenly over ``--seconds``
SETUP_BURSTS = 21
BURST = 5
SIM_NODES = 4

RUNTIME_KWARGS: dict[str, tuple[type, dict[str, Any]]] = {
    "seq": (ThreadedRuntime, {"nodes": 1}),
    "threaded": (ThreadedRuntime, {"nodes": WIDTH}),
    # every knob at its CLI default: batch 1, no fusion, no autotune
    "process": (ProcessRuntime, {"workers": WIDTH}),
    "tuned": (ProcessRuntime, {"workers": WIDTH, "batch": 4, "fuse": True}),
    "sim": (SimRuntime, {"nodes": SIM_NODES, "execute": False}),
}


class RunTimeout(BaseException):
    """A run exceeded RUN_TIMEOUT_S; the child's state is unknown."""


class CheckFailed(Exception):
    """A run completed but its outcome is wrong."""


def on_alarm(signum: int, frame: Any) -> None:
    """SIGALRM handler the child installs; see :meth:`Ops.do`."""
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S} s")


@dataclass
class Ops:
    """Operations attempted and failed; every run is one operation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def do(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one operation; None (and a failure) if it raises."""
        self.attempted += 1
        signal.alarm(RUN_TIMEOUT_S)
        try:
            return fn()
        except RunTimeout as exc:
            self.fail(label, exc)
            raise
        except Exception as exc:
            self.fail(label, exc)
            return None
        finally:
            signal.alarm(0)

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


@dataclass
class Run:
    """One verified run: the runtime, its result and our own timings."""

    runtime: Any
    result: Any
    frames: int
    #: perf_counter() when the constructor was called
    started: float
    #: seconds inside the constructor, and inside run()
    construct: float
    wall: float

    @property
    def fps(self) -> float:
        # SimResult carries virtual cycles only; its wall time is ours
        elapsed = getattr(self.result, "elapsed_seconds", self.wall)
        return self.frames / elapsed


#: every repro.apps builder names its terminal component "sink"
SINK = "sink"


def sink_count(components: dict[str, Any]) -> int:
    sink = components[SINK]
    if hasattr(sink, "frames_written"):
        return sink.frames_written
    return sink.records_written


def frame_digests(components: dict[str, Any]) -> list[str]:
    """SHA-256 of each collected output frame, in iteration order."""
    sink = components[SINK]
    if hasattr(sink, "ordered_frames"):
        frames = [(f.y, f.u, f.v) for f in sink.ordered_frames()]
    else:
        frames = [(p,) for p in sink.ordered_planes()]
    digests = []
    for planes in frames:
        h = hashlib.sha256()
        for plane in planes:
            h.update(str((plane.shape, plane.dtype.str)).encode())
            h.update(plane.tobytes())
        digests.append(h.hexdigest())
    return digests


def combined(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Bench:
    """One workload at one seed: programs, runs and the operation count."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.ports = default_ports()
        self.registry = default_registry()
        self.ops = Ops()
        self.shm_before = hygiene.shm_entries()

    def program(self, xml: str) -> Any:
        return expand(parse_string(xml), self.ports, name=self.w.name)

    def construct(self, config: str, program: Any, frames: int,
                  **extra: Any) -> Any:
        cls, kwargs = RUNTIME_KWARGS[config]
        return cls(program, self.registry, pipeline_depth=PIPELINE_DEPTH,
                   max_iterations=frames, **{**kwargs, **extra})

    def run(self, config: str, program: Any, frames: int, *, label: str,
            verify: Callable[[Run], None] | None = None,
            profile: Callable[..., None] | None = None,
            **extra: Any) -> Run | None:
        """Construct and run one configuration as one operation.

        ``profile`` is installed (all threads) around ``run()`` alone.
        """

        def op() -> Run:
            started = time.perf_counter()
            runtime = self.construct(config, program, frames, **extra)
            constructed = time.perf_counter()
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                result = runtime.run()
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            run = Run(runtime, result, frames, started,
                      constructed - started, time.perf_counter() - constructed)
            self.check(config, run)
            if verify is not None:
                verify(run)
            return run

        return self.ops.do(label, op)

    def check(self, config: str, run: Run) -> None:
        result = run.result
        if result.completed_iterations != run.frames:
            raise CheckFailed(
                f"completed {result.completed_iterations} of {run.frames}")
        if config == "sim":
            return
        if sink_count(result.components) != run.frames:
            raise CheckFailed(
                f"sink saw {sink_count(result.components)} of {run.frames}")
        if result.fault_events:
            raise CheckFailed(f"fault events: {result.fault_events[:3]}")
        if multiprocessing.active_children():
            raise CheckFailed("worker processes left after run()")
        if threading.active_count() != 1:
            raise CheckFailed("threads left after run()")
        leaked = hygiene.shm_entries() - self.shm_before
        if leaked:
            raise CheckFailed(f"/dev/shm entries left: {sorted(leaked)[:3]}")


# -- output oracle ----------------------------------------------------------


def oracle(b: Bench) -> dict[str, str]:
    """Run 12 collected frames on the four runtime configurations.

    Static workloads must produce one digest everywhere, equal to the
    committed one at seed 0.  A timer-toggled workload is deterministic
    only sequentially (ROADMAP item 4): its seq run must match the
    committed digest, the others must reconfigure at least once and emit,
    frame by frame, what one of the two static variants emits.
    """
    expected = json.loads((HERE / "expected.json").read_text())
    committed = expected.get(b.w.name) if b.seed == 0 else None
    program = b.program(b.w.xml(b.seed, collect=True))
    digests: dict[str, str] = {}

    statics: list[list[str]] = []
    for i, xml in enumerate(b.w.static_xml(b.seed, collect=True)):
        run = b.run("seq", b.program(xml), ORACLE_FRAMES,
                    label=f"oracle/static{i}")
        statics.append(frame_digests(run.result.components) if run else [])

    reference: list[str] = []

    def verify(config: str) -> Callable[[Run], None]:
        def check(run: Run) -> None:
            frames = frame_digests(run.result.components)
            digests[config] = combined(frames)
            if config == "seq":
                reference[:] = frames
                if committed is not None and digests[config] != committed:
                    raise CheckFailed(
                        f"digest {digests[config]} != committed {committed}")
            elif not statics:
                if frames != reference:
                    raise CheckFailed("output differs from the seq run")
            else:
                if run.result.reconfig_count < 1:
                    raise CheckFailed("never reconfigured")
                for i, frame in enumerate(frames):
                    if all(frame != s[i] for s in statics):
                        raise CheckFailed(
                            f"frame {i} matches no static variant")
        return check

    for config in CONFIGS[:4]:
        b.run(config, program, ORACLE_FRAMES, label=f"oracle/{config}",
              verify=verify(config))
    return digests


# -- end-to-end metrics -----------------------------------------------------


def build_seconds(b: Bench, xml: str) -> float | None:
    """One build: XML text -> constructed ThreadedRuntime."""

    def op() -> float:
        start = time.perf_counter()
        b.construct("seq", b.program(xml), 1)
        return time.perf_counter() - start

    return b.ops.do("setup", op)


def spaced_builds(b: Bench, xml: str, seconds: float, bursts: int
                  ) -> list[float]:
    """The median of each of ``bursts`` bursts of BURST builds.

    One burst starts every ``seconds / bursts``.  Back to back, all
    builds would sit in one mood of the host; spaced over the invocation
    their median is 3-4x steadier (README, "Findings").  A burst, not a
    single build, because the first thing to run after a sleep pays for
    waking the core and takes up to twice as long: a burst's median is a
    build on a warm core.
    """
    start = time.perf_counter()
    medians = []
    for i in range(bursts):
        time.sleep(max(0.0, start + i * seconds / bursts
                       - time.perf_counter()))
        burst = [build_seconds(b, xml) for _ in range(BURST)]
        if None not in burst:
            medians.append(statistics.median(burst))
    return medians


def count_calls(b: Bench, program: Any, frames: int) -> float | None:
    """``call`` + ``c_call`` profile events per frame of a seq run.

    The deterministic measure of interpreter work from source to sink:
    it repeats to better than 0.01 % after one warm-up run.
    """
    b.run("seq", program, frames, label="calls/warmup")
    calls = [0]

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call" or event == "c_call":
            calls[0] += 1

    gc.collect()
    run = b.run("seq", program, frames, label="calls/profile",
                profile=profile)
    return None if run is None else calls[0] / frames


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter or any waited-for child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def untraced_pass(b: Bench, seconds: float, quick: bool) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    detail: dict[str, Any] = {"phase_seconds": {}}
    phase_start = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal phase_start
        now = time.perf_counter()
        detail["phase_seconds"][name] = now - phase_start
        phase_start = now

    detail["digests"] = oracle(b)
    phase("oracle")

    xml = b.w.xml(b.seed)
    metrics["calls_per_frame"] = count_calls(
        b, b.program(xml), b.w.probe_frames)
    phase("calls")

    builds = (spaced_builds(b, xml, 0.0, 3) if quick
              else spaced_builds(b, xml, seconds, SETUP_BURSTS))
    phase("setup")
    metrics["setup_s"] = statistics.median(builds) if builds else None
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail["setup_samples"] = builds
    return {"metrics": metrics, "detail": detail}


UNITS = {"setup_s": "s", "calls_per_frame": "calls/frame",
         "peak_rss_mb": "MiB"}

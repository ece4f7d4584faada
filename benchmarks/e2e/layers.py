"""The traced pass: per-layer numbers, timed from outside the system.

Layers are module names.  Each number comes from timing calls into a
module's public functions, or from the public ``RunResult``/``SimResult``/
``Tracer`` fields of a run; every such call is wrapped in a span
(:mod:`spans`) and the pass ends by writing ``trace-<workload>.json``.
README.md states which end-to-end metric each number should move.

The pass ends with the timed rounds: the throughputs and the cold process
run, which the host's noise keeps out of the bounded end-to-end tier
(README, "Demoted metrics").  Those runs are untraced.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

import numpy as np

from measure import SINK, Bench, CheckFailed, Run
from spans import Span, Spans
from workloads import CONFIGS, PIPELINE_DEPTH, WIDTH

from repro.analysis import lint_spec
from repro.analysis.formats import (
    auto_insert_converters, runtime_expectations, solve_formats_or_raise,
)
from repro.core.expander import expand
from repro.core.parser import parse_string
from repro.hinch import DataflowScheduler, Job, JobQueue, SharedPlanePool
from repro.hinch.fusion import fuse_chains
from repro.hinch.stream import StreamStore
from repro.hinch.tracing import ATTRIBUTION_KINDS, CONTROL_KINDS

#: the six metrics of the timed rounds, demoted from the end-to-end tier
ROUND_UNITS = {
    "cold_run_process_s": "s",
    "fps_seq": "frames/s",
    "fps_threaded": "frames/s",
    "fps_process": "frames/s",
    "fps_process_tuned": "frames/s",
    "sim_fps": "frames/s",
}
FPS_NAMES = dict(zip(CONFIGS, list(ROUND_UNITS)[1:]))

UNITS = {
    **ROUND_UNITS,
    "core.parse_ms": "ms",
    "core.expand_ms": "ms",
    "core.build_graph_ms": "ms",
    "analysis.format_solve_ms": "ms",
    "analysis.lint_ms": "ms",
    "hinch.fusion.compile_ms": "ms",
    "hinch.fusion.nodes_fused_ratio": "ratio",
    "hinch.scheduler.transitions_per_s": "1/s",
    "hinch.scheduler.jobs_per_frame": "jobs/frame",
    "hinch.scheduler.reconfigs": "count",
    "hinch.jobqueue.push_pop_per_s": "1/s",
    "hinch.stream.put_get_us": "us",
    "hinch.shm.acquire_release_us": "us",
    "hinch.shm.pack_unpack_us": "us",
    "hinch.shm.recycle_ratio": "ratio",
    "hinch.shm.planes_created": "count",
    "hinch.shm.oob_bytes_per_frame": "bytes/frame",
    "hinch.runtime.construct_ms": "ms",
    "hinch.runtime.overhead_share_seq": "ratio",
    "hinch.runtime.overhead_us_per_job_seq": "us",
    "hinch.runtime.threaded_over_seq": "ratio",
    "hinch.runtime.utilization_threaded": "ratio",
    "hinch.runtime.frame_latency_p50_ms": "ms",
    "hinch.runtime.frame_latency_p90_ms": "ms",
    "hinch.runtime.splice_cost_ms": "ms",
    "hinch.runtime.max_output_gap_ms": "ms",
    "hinch.process.construct_ms": "ms",
    "hinch.process.spawn_overhead_ms": "ms",
    "hinch.process.splice_cost_ms": "ms",
    "hinch.process.ctl_bytes_per_frame": "bytes/frame",
    "hinch.process.ctl_bytes_per_frame_tuned": "bytes/frame",
    "hinch.process.plane_packs_per_frame": "packs/frame",
    "hinch.process.pickle_packs": "count",
    "hinch.process.utilization": "ratio",
    "hinch.process.workers_spawned": "count",
    "hinch.process.retries": "count",
    "hinch.process.process_over_threaded": "ratio",
    "components.kernel_ms_per_frame": "ms",
    "hinch.tracing.overhead_share": "ratio",
    "hinch.tracing.events_per_frame": "events/frame",
    "spacecake.jobs_per_s": "1/s",
    "spacecake.construct_ms": "ms",
    "spacecake.cycles_per_frame": "cycles/frame",
    "spacecake.utilization": "ratio",
    "spacecake.speedup_4": "ratio",
    "spacecake.reconfig_overhead_pct": "%",
    "host.spin_ms": "ms",
}


#: round-robin rounds over the five timed configurations, and the cold
#: process runs shared out over them
ROUNDS = 5
COLD_RUNS = 9
#: seconds of discarded threaded runs before the first that counts.  Two
#: Hinch threads run ~2x faster for the first ~2 s of their life in a
#: process, until the kernel spreads them over both cores and the GIL
#: starts ping-ponging (README, "Findings").
WARM_THREADED_S = 3.0


def host_spin_ms() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow program.

    Reported, never used to normalise — normalising by a calibration
    kernel was measured not to reduce the spread (README, "Findings").
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


class Pass:
    """State of one traced pass over one workload."""

    def __init__(self, bench: Bench, quick: bool) -> None:
        self.b = bench
        self.quick = quick
        #: calls per front-end timing; a third as many runs per runtime number
        self.calls = 3 if quick else 9
        self.repeats = 1 if quick else 3
        self.spans = Spans(f"{bench.w.name}#seed{bench.seed}")
        self.m: dict[str, float] = {}

    def frames(self, config: str) -> int:
        return self.b.w.trace_frames[config]

    def timed(self, name: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Median milliseconds of ``fn()``, one span per call."""
        times, out = [], None
        for _ in range(self.calls):
            with self.spans.span(name):
                start = time.perf_counter()
                out = fn()
                times.append(time.perf_counter() - start)
        return out, statistics.median(times) * 1e3

    def run(self, config: str, program: Any, frames: int, *, label: str,
            track: str | None = None, **extra: Any) -> Run:
        """One run inside a span; Hinch's events become its children."""
        gc.collect()
        with self.spans.span(label, config=config, frames=frames) as index:
            run = self.b.run(config, program, frames, label=label, **extra)
        if run is None:
            raise CheckFailed(f"{label} failed: {self.b.ops.errors[-1]}")
        layer = type(run.runtime).__name__
        constructed = run.started + run.construct
        spans = self.spans.spans
        spans.append(Span(f"{layer}.construct", run.started, constructed,
                          index, self.spans.workload))
        spans.append(Span(f"{layer}.run", constructed, constructed + run.wall,
                          index, self.spans.workload))
        if track is not None:
            self.spans.attach_events(
                len(spans) - 1, run.result.trace.events, track)
        return run


# -- front end: core, analysis, fusion --------------------------------------


def front_end(p: Pass, xml: str) -> tuple[Any, Any, dict]:
    b, m = p.b, p.m
    spec, m["core.parse_ms"] = p.timed("core.parse", lambda: parse_string(xml))
    program, m["core.expand_ms"] = p.timed(
        "core.expand", lambda: expand(spec, b.ports, name=b.w.name))
    # build_graph on a fresh Program each time
    fresh = [expand(spec, b.ports, name=b.w.name) for _ in range(p.calls)]
    graph, m["core.build_graph_ms"] = p.timed(
        "core.build_graph", lambda: fresh.pop().build_graph())

    def solve() -> tuple[Any, dict, dict]:
        solution = solve_formats_or_raise(program, graph)
        expectations = runtime_expectations(program, graph, solution=solution)
        return auto_insert_converters(
            program, graph, b.registry, expectations, solution)

    (pg, _, expectations), m["analysis.format_solve_ms"] = p.timed(
        "analysis.format_solve", solve)
    _, m["analysis.lint_ms"] = p.timed(
        "analysis.lint",
        lambda: lint_spec(spec, ports=b.ports, classes=b.registry,
                          name=b.w.name))
    (fused, _), m["hinch.fusion.compile_ms"] = p.timed(
        "hinch.fusion.compile",
        lambda: fuse_chains(pg, program, b.registry, expectations, "numpy",
                            parallel_headroom=WIDTH))
    m["hinch.fusion.nodes_fused_ratio"] = (
        (len(pg.graph) - len(fused.graph)) / len(pg.graph))
    return program, pg, expectations


# -- primitives: scheduler, job queue, stream, shm --------------------------


def drive_scheduler(pg: Any, frames: int) -> int:
    """Every transition of ``frames`` iterations, executing nothing."""
    scheduler = DataflowScheduler(
        pg, pipeline_depth=PIPELINE_DEPTH, max_iterations=frames)
    ready = deque(scheduler.start())
    transitions = 0
    while ready:
        ready.extend(scheduler.complete(ready.popleft()))
        transitions += 1
    if scheduler.completed_iterations != frames:
        raise CheckFailed("scheduler drive did not complete")
    return transitions


def primitives(p: Pass, pg: Any, expectations: dict) -> None:
    m = p.m
    frames = 50 if p.quick else 500
    with p.spans.span("hinch.scheduler.drive", frames=frames):
        start = time.perf_counter()
        transitions = drive_scheduler(pg, frames)
        elapsed = time.perf_counter() - start
    m["hinch.scheduler.transitions_per_s"] = transitions / elapsed
    m["hinch.scheduler.jobs_per_frame"] = transitions / frames

    def seconds_per_call(name: str, calls: int, body: Callable[[int], Any]
                         ) -> float:
        with p.spans.span(name, calls=calls):
            start = time.perf_counter()
            for i in range(calls):
                body(i)
            return (time.perf_counter() - start) / calls

    queue, job = JobQueue(), Job(iteration=0, node_id="n")
    m["hinch.jobqueue.push_pop_per_s"] = 1.0 / seconds_per_call(
        "hinch.jobqueue.push_pop", 2_000 if p.quick else 100_000,
        lambda i: (queue.push(job), queue.pop()))

    # the workload's largest solved plane
    shape, dtype = max(
        expectations.values(),
        key=lambda e: int(np.prod(e[0])) * np.dtype(e[1]).itemsize)
    plane = np.zeros(shape, dtype=dtype)
    stream = StreamStore(SharedPlanePool(shared=False)).stream("bench")
    m["hinch.stream.put_get_us"] = 1e6 * seconds_per_call(
        "hinch.stream.put_get", 200 if p.quick else 3_000,
        lambda i: (stream.put(i, plane), stream.get(i), stream.release(i)))

    calls = 50 if p.quick else 500
    with SharedPlanePool(shared=True) as pool:
        m["hinch.shm.acquire_release_us"] = 1e6 * seconds_per_call(
            "hinch.shm.acquire_release", calls,
            lambda i: pool.release(pool.acquire(shape, dtype)[1]))

        def pack_unpack(i: int) -> None:
            packed = pool.pack(plane)
            pool.unpack(packed)
            pool.release_packed(packed)

        m["hinch.shm.pack_unpack_us"] = 1e6 * seconds_per_call(
            "hinch.shm.pack_unpack", calls, pack_unpack)


# -- runtimes ---------------------------------------------------------------


def work_events(result: Any) -> list[Any]:
    return [e for e in result.trace.events
            if e.kind not in ATTRIBUTION_KINDS and e.kind not in CONTROL_KINDS]


def output_timing(run: Run) -> tuple[list[float], list[float]]:
    """Per-frame latency (sink end - first source start) and sink ends."""
    sources = set(run.runtime.pg.graph.sources())
    first_source: dict[int, float] = {}
    sink_end: dict[int, float] = {}
    for e in run.result.trace.events:
        if e.node_id in sources:
            first_source[e.iteration] = min(
                e.start, first_source.get(e.iteration, e.start))
        if e.node_id == SINK:
            sink_end[e.iteration] = e.end
    latencies = [end - first_source[i] for i, end in sink_end.items()]
    return latencies, sorted(sink_end.values())


def threaded_runtime(p: Pass, program: Any) -> None:
    """Short seq runs with and without tracing, then a traced threaded run."""
    b, m, spans = p.b, p.m, p.spans
    frames = p.frames("seq")
    plain, traced = [], []
    for i in range(p.repeats):
        plain.append(p.run("seq", program, frames, label="seq/untraced"))
        traced.append(p.run("seq", program, frames, label="seq/traced",
                            track="seq" if i == 0 else None, trace=True))
    m["hinch.runtime.construct_ms"] = statistics.median(
        r.construct for r in plain + traced) * 1e3
    fps_seq = max(r.fps for r in plain)
    m["hinch.tracing.overhead_share"] = (
        1.0 - max(r.fps for r in traced) / fps_seq)

    # the fastest traced run is the one the host disturbed least
    run = max(traced, key=lambda r: r.fps)
    events = work_events(run.result)
    kernel = sum(e.duration for e in events if e.kind == "task")
    # the run's self time: elapsed minus what its task spans cover
    overhead = run.result.elapsed_seconds - sum(e.duration for e in events)
    m["hinch.runtime.overhead_share_seq"] = (
        overhead / run.result.elapsed_seconds)
    m["hinch.runtime.overhead_us_per_job_seq"] = overhead / len(events) * 1e6
    m["components.kernel_ms_per_frame"] = kernel / frames * 1e3
    m["hinch.tracing.events_per_frame"] = (
        len(run.result.trace.events) / frames)
    m["hinch.scheduler.reconfigs"] = run.result.reconfig_count

    frames = p.frames("threaded")
    if not p.quick:
        deadline = time.perf_counter() + WARM_THREADED_S
        with spans.span("threaded/warmup"):
            while time.perf_counter() < deadline:
                b.run("threaded", program, frames, label="threaded/warmup")
    run = p.run("threaded", program, frames, label="threaded/traced",
                track="threaded", trace=True)
    m["hinch.runtime.utilization_threaded"] = run.result.trace.utilization(
        WIDTH)

    latencies, ends = output_timing(run)
    m["hinch.runtime.frame_latency_p50_ms"] = np.percentile(latencies, 50) * 1e3
    m["hinch.runtime.frame_latency_p90_ms"] = np.percentile(latencies, 90) * 1e3
    m["hinch.runtime.max_output_gap_ms"] = max(
        (later - earlier for earlier, later in zip(ends, ends[1:])),
        default=0.0) * 1e3


def process_runtime(p: Pass, program: Any) -> None:
    m = p.m
    cold, one_frame = [], []
    for _ in range(p.repeats):
        cold.append(p.run("process", program, 1, label="process/cold"))
        one_frame.append(p.run("seq", program, 1, label="seq/one-frame"))
    m["hinch.process.construct_ms"] = statistics.median(
        r.construct for r in cold) * 1e3
    # the cold run of cold_run_process_s minus the same frame on threads
    m["hinch.process.spawn_overhead_ms"] = (
        min(r.construct + r.wall for r in cold)
        - min(r.construct + r.wall for r in one_frame)) * 1e3

    frames = p.frames("process")
    plain = p.run("process", program, frames, label="process/untraced")
    stats = plain.result.pool_stats
    m["hinch.process.ctl_bytes_per_frame"] = (
        stats["meta_pickled_bytes"] / frames)
    m["hinch.process.plane_packs_per_frame"] = stats["plane_packs"] / frames
    m["hinch.process.pickle_packs"] = stats["pickle_packs"]
    m["hinch.process.workers_spawned"] = plain.result.workers_spawned
    m["hinch.process.retries"] = plain.runtime.scheduler.retries
    m["hinch.shm.recycle_ratio"] = stats["recycled"] / max(1, stats["acquires"])
    m["hinch.shm.planes_created"] = stats["planes_created"]
    m["hinch.shm.oob_bytes_per_frame"] = stats["oob_bytes"] / frames

    traced = p.run("process", program, frames, label="process/traced",
                   track="process", trace=True)
    m["hinch.process.utilization"] = traced.result.trace.utilization(
        traced.result.workers_spawned)

    frames = p.frames("tuned")
    tuned = p.run("tuned", program, frames, label="tuned/untraced")
    m["hinch.process.ctl_bytes_per_frame_tuned"] = (
        tuned.result.pool_stats["meta_pickled_bytes"] / frames)


SPLICE_COSTS = (("hinch.runtime.splice_cost_ms", "seq"),
                ("hinch.process.splice_cost_ms", "process"))


def splice_costs(p: Pass, program: Any) -> None:
    """(elapsed with toggles - elapsed without) / reconfigurations.

    "Without" is the same frames with the timer period set beyond the
    run, so it stays on the initial 3x3 kernel: the difference also holds
    the extra kernel time of the 5x5 phases (README).
    """
    b, m = p.b, p.m
    if b.w.toggle_option is None:
        m.update({name: 0.0 for name, _ in SPLICE_COSTS})
        return
    still = b.program(b.w.xml(b.seed, period=10**6))
    for name, config in SPLICE_COSTS:
        frames = p.frames(config)
        moving, fixed = [], []
        for _ in range(p.repeats):
            moving.append(
                p.run(config, program, frames, label=f"{config}/toggling"))
            fixed.append(
                p.run(config, still, frames, label=f"{config}/still"))
        if any(r.result.reconfig_count for r in fixed):
            raise CheckFailed("the still variant reconfigured")
        fastest = min(moving, key=lambda r: r.result.elapsed_seconds)
        m[name] = (
            fastest.result.elapsed_seconds
            - min(r.result.elapsed_seconds for r in fixed)
        ) / max(1, fastest.result.reconfig_count) * 1e3


# -- simulator --------------------------------------------------------------


def simulator(p: Pass, program: Any) -> None:
    b, m = p.b, p.m
    frames = p.frames("sim")
    run = p.run("sim", program, frames, label="sim/nodes4")
    result = run.result
    m["spacecake.jobs_per_s"] = result.jobs_executed / run.wall
    m["spacecake.cycles_per_frame"] = result.cycles / frames
    m["spacecake.utilization"] = result.utilization
    one = p.run("sim", program, frames, label="sim/nodes1", nodes=1)
    m["spacecake.speedup_4"] = one.result.cycles / result.cycles
    m["spacecake.construct_ms"] = statistics.median(
        (run.construct, one.construct)) * 1e3

    m["spacecake.reconfig_overhead_pct"] = 0.0
    if b.w.toggle_option is not None:
        # FIG10: static baselines weighted by the measured exposure
        option = program.options[b.w.toggle_option]
        on = result.option_exposure(
            option.qname, initial=option.default_enabled,
            total_iterations=frames)
        c_off, c_on = (
            p.run("sim", b.program(xml), frames,
                  label=f"sim/static{i}").result.cycles
            for i, xml in enumerate(b.w.static_xml(b.seed)))
        baseline = ((frames - on) * c_off + on * c_on) / frames
        m["spacecake.reconfig_overhead_pct"] = (
            result.cycles / baseline - 1.0) * 100.0


# -- the timed rounds -------------------------------------------------------


def timed_rounds(p: Pass, program: Any) -> dict[str, Any]:
    """ROUNDS round-robin rounds over the five configurations, untraced.

    One round is its share of the COLD_RUNS one-iteration process runs,
    then one run of each configuration at the workload's frame count, so
    every kind of sample is spread over the rounds.  The counts are fixed:
    both sides of a comparison take the same number of samples.  A value
    is the median of its samples.  Every configuration has already run
    in this interpreter, threads for WARM_THREADED_S.  Returns the samples
    and the two run-length criteria as measured: the shortest timed run in
    seconds, and the shortest process-backend run as a multiple of
    cold_run_process_s (>= 20 keeps worker spawn under 5 % of a run).
    """
    m, w = p.m, p.b.w
    rounds, colds = (1, 1) if p.quick else (ROUNDS, COLD_RUNS)
    samples: dict[str, list[float]] = {name: [] for name in ROUND_UNITS}
    lasted: dict[str, float] = {}
    for i in range(rounds):
        for _ in range(colds // rounds + (i < colds % rounds)):
            run = p.run("process", program, 1, label=f"round{i}/cold")
            samples["cold_run_process_s"].append(run.construct + run.wall)
        for config in CONFIGS:
            run = p.run(config, program, w.frames[config],
                        label=f"round{i}/{config}")
            samples[FPS_NAMES[config]].append(run.fps)
            lasted[config] = min(run.frames / run.fps,
                                 lasted.get(config, float("inf")))
    for name, values in samples.items():
        m[name] = statistics.median(values)
    m["hinch.runtime.threaded_over_seq"] = m["fps_threaded"] / m["fps_seq"]
    m["hinch.process.process_over_threaded"] = (
        m["fps_process"] / m["fps_threaded"])
    return {
        "round_samples": samples,
        "run_lengths": {
            "shortest_run_s": min(lasted.values()),
            "shortest_process_run_over_cold": min(
                lasted["process"], lasted["tuned"]) / m["cold_run_process_s"],
        },
    }


def traced_pass(bench: Bench, quick: bool, trace_dir: Path) -> dict[str, Any]:
    p = Pass(bench, quick)
    spin = [host_spin_ms()]
    with p.spans.span("workload", seed=bench.seed):
        program, pg, expectations = front_end(p, bench.w.xml(bench.seed))
        primitives(p, pg, expectations)
        threaded_runtime(p, program)
        process_runtime(p, program)
        splice_costs(p, program)
        simulator(p, program)
        with p.spans.span("rounds"):
            rounds = timed_rounds(p, program)
    spin.append(host_spin_ms())
    p.m["host.spin_ms"] = statistics.mean(spin)
    trace_path = trace_dir / f"trace-{bench.w.name}.json"
    p.spans.write_chrome(trace_path)
    return {
        "metrics": p.m,
        "detail": {
            "trace": str(trace_path),
            "host_spin_ms": spin,
            "self_seconds": p.spans.self_times(),
            **rounds,
        },
    }

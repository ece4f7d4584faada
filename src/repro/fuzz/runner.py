"""Differential execution of one fuzz case.

Builds the case's spec, then holds it to three oracles:

* **lint/build agreement** — mutated (deliberately broken) specs must be
  flagged by lint AND refused at build (expand or runtime construction);
  clean specs must lint clean and run on every backend;
* **bit-identical output** — every run configuration (threaded/process,
  sequential/wide, knobs on/off, faults injected) must produce the same
  sink records in the same order;
* **clean accounting** — runs complete all iterations, report every
  unfired fault, and leak nothing into ``/dev/shm``.

Determinism rules (established by the backend test suites, and refined
by this fuzzer's own first campaign): timer-driven reconfiguration is
only cross-backend deterministic sequentially (``workers=1,
pipeline_depth=1``); events posted *before* ``run()`` are deterministic
at any *width* but not across *depths* — the splice lands at the
pipeline's drain point, so ``pipeline_depth`` shifts the resume
iteration (depth 1 resumes at iteration 1, depth 2 at iteration 2,
identically on both backends); static programs match at any knob
setting.  The run matrix below respects exactly those rules, so any
mismatch it finds is a real bug, not harness noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.fuzz.generator import FuzzCase

__all__ = ["CaseFailure", "build_spec", "check_case"]

#: queue/event names used by generated reconfigurable regions
QUEUE = "fz"
EVENT = "tog"


@dataclass
class CaseFailure:
    """One oracle violation; ``kind`` is stable across shrinking."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def _shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# -- spec construction -------------------------------------------------------


def _video_stage(main, idx: int, stage: dict, case: FuzzCase,
                 in_stream: str, out_stream: str) -> None:
    geometry = {"width": case.width, "height": case.height}
    if stage["kind"] == "convert":
        params = {"dtype": "uint8", **geometry}
        if stage["slices"] > 1:
            with main.parallel("slice", n=stage["slices"]):
                main.component(f"c{idx}", "convert_plane",
                               streams={"input": in_stream,
                                        "output": out_stream},
                               params=params)
        else:
            main.component(f"c{idx}", "convert_plane",
                           streams={"input": in_stream,
                                    "output": out_stream},
                           params=params)
        return
    if stage["kind"] == "blur":
        params = {**geometry, "size": 3, "sigma": 1.0}
        with main.parallel("crossdep", n=stage["slices"]):
            with main.parblock():
                main.component(f"bh{idx}", "blur_h_field",
                               streams={"input": in_stream,
                                        "output": f"m{idx}"},
                               params=params)
            with main.parblock():
                main.component(f"bv{idx}", "blur_v_field",
                               streams={"input": f"m{idx}",
                                        "output": out_stream},
                               params=params)
        return
    raise ValueError(f"unknown video stage kind {stage['kind']!r}")


def _audio_stage(main, idx: int, stage: dict, case: FuzzCase,
                 in_stream: str, out_stream: str) -> None:
    params = {"channels": case.width, "block": case.height,
              "taps": stage.get("taps", "smooth")}
    if stage["slices"] > 1:
        with main.parallel("slice", n=stage["slices"]):
            main.component(f"f{idx}", "band_filter",
                           streams={"input": in_stream,
                                    "output": out_stream},
                           params=params)
    else:
        main.component(f"f{idx}", "band_filter",
                       streams={"input": in_stream,
                                "output": out_stream},
                       params=params)


def build_spec(case: FuzzCase):
    """Materialize the case as an XSPCL spec (mutation included)."""
    from repro.core.builder import AppBuilder

    b = AppBuilder()
    main = b.procedure("main")
    n = len(case.stages)
    streams = [f"s{i}" for i in range(n + 1)]

    if case.palette == "audio":
        main.component("src", "audio_source",
                       streams={"samples": streams[0]},
                       params={"channels": case.width, "block": case.height,
                               "seed": case.seed % 97})
    else:
        main.component("src", "luma_source", streams={"output": streams[0]},
                       params={"width": case.width, "height": case.height,
                               "seed": case.seed % 97})

    emit = _audio_stage if case.palette == "audio" else _video_stage
    wrapped = case.reconfig["stage"] if case.reconfig else None
    period = _timer_period(case)
    if period is not None:
        # multi-toggle schedules are timer-driven (and the run matrix
        # then stays sequential, the only width where timers are
        # cross-backend deterministic)
        main.component("clock", "timer",
                       params={"queue": QUEUE, "period": period,
                               "event": EVENT})
    for idx, stage in enumerate(case.stages):
        if idx == wrapped:
            # While the option is off, the previous stage's writers are
            # rerouted straight to the option's output stream.
            with main.manager(f"mgr{idx}", queue=QUEUE) as mgr:
                mgr.on(EVENT, "toggle", option=f"opt{idx}")
                with main.option(f"opt{idx}", enabled=True,
                                 bypass=[(streams[idx], streams[idx + 1])]):
                    emit(main, idx, stage, case, streams[idx],
                         streams[idx + 1])
        else:
            emit(main, idx, stage, case, streams[idx], streams[idx + 1])

    sink_stream = streams[n]
    if case.mutation == "dangling":
        sink_stream = "nowhere"  # read a stream nothing writes
    if case.palette == "audio":
        sink_params: dict = {"channels": case.width, "block": case.height,
                             "collect": True}
        if case.mutation == "shape":
            sink_params["block"] = case.height + 1
        main.component("sink", "feature_sink",
                       streams={"input": sink_stream}, params=sink_params)
    else:
        sink_params = {"width": case.width, "height": case.height,
                       "collect": True}
        if case.mutation == "shape":
            sink_params["height"] = case.height + 1
        main.component("sink", "plane_sink", streams={"input": sink_stream},
                       params=sink_params)
    if case.mutation == "unknown_class":
        main.component("ghost", "no_such_class",
                       streams={"input": streams[0]})
    return b.build()


# -- execution ---------------------------------------------------------------


def _timer_period(case: FuzzCase) -> int | None:
    """Period for multi-toggle reconfig cases (timer-driven, sequential)."""
    if case.reconfig is None or case.reconfig["toggles"] <= 1:
        return None
    return max(1, case.iterations // (case.reconfig["toggles"] + 1))


def _plan_runs(case: FuzzCase) -> list[dict]:
    """The differential run matrix, within the determinism rules."""
    knobs = case.knobs
    timered = _timer_period(case) is not None
    if timered:
        # timer-driven reconfiguration: sequential runs only
        runs = [
            {"backend": "threaded", "nodes": 1, "depth": 1},
            {"backend": "threaded", "nodes": 1, "depth": 1, "fuse": True},
            {"backend": "process", "workers": 1, "depth": 1},
        ]
        if case.faults:
            runs.append({"backend": "process", "workers": 1, "depth": 1,
                         "faults": case.faults})
        return runs
    if case.reconfig is not None:
        # single pre-posted toggle: the splice iteration is a function of
        # pipeline depth, so the whole matrix shares one depth while
        # backend, width, batching and fusion still vary
        depth = 2
        runs = [
            {"backend": "threaded", "nodes": 2, "depth": depth},
            {"backend": "threaded", "nodes": 1, "depth": depth},
            {"backend": "threaded", "nodes": 2, "depth": depth,
             "fuse": True},
            {"backend": "process", "workers": 1, "depth": depth},
            {
                "backend": "process",
                "workers": knobs.get("workers", 2),
                "depth": depth,
                "batch": knobs.get("batch", 1),
                "fuse": knobs.get("fuse", False),
                "autotune": knobs.get("autotune", False),
            },
        ]
        if case.faults:
            runs.append({"backend": "process", "workers": 2, "depth": depth,
                         "faults": case.faults})
        return runs
    runs = [
        {"backend": "threaded", "nodes": 2, "depth": 2},
        {"backend": "threaded", "nodes": 1, "depth": 1},
        {"backend": "threaded", "nodes": 2, "depth": 2, "fuse": True},
        {"backend": "process", "workers": 1, "depth": 2},
        {
            "backend": "process",
            "workers": knobs.get("workers", 2),
            "depth": knobs.get("depth", 2),
            "batch": knobs.get("batch", 1),
            "fuse": knobs.get("fuse", False),
            "autotune": knobs.get("autotune", False),
        },
    ]
    if case.faults:
        runs.append({"backend": "process", "workers": 2, "depth": 2,
                     "faults": case.faults})
    return runs


def _execute(case: FuzzCase, program, registry, run: dict):
    """One run; returns (ordered outputs, RunResult)."""
    from repro.hinch import ProcessRuntime, ThreadedRuntime

    period = _timer_period(case)
    if run["backend"] == "threaded":
        rt = ThreadedRuntime(
            program, registry,
            nodes=run.get("nodes", 1),
            pipeline_depth=run.get("depth", 1),
            max_iterations=case.iterations,
            fuse=run.get("fuse", False),
        )
    else:
        rt = ProcessRuntime(
            program, registry,
            workers=run.get("workers", 1),
            pipeline_depth=run.get("depth", 1),
            max_iterations=case.iterations,
            batch=run.get("batch", 1),
            fuse=run.get("fuse", False),
            autotune=run.get("autotune", False),
            faults=",".join(run.get("faults", [])) or None,
        )
    if case.reconfig is not None and period is None:
        rt.post_event(QUEUE, EVENT)  # single toggle: any-width determinism
    result = rt.run()
    sink = result.components["sink"]
    return list(sink.ordered_planes()), result


def _describe_run(run: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(run.items()))


def check_case(case: FuzzCase, *, registry=None) -> CaseFailure | None:
    """Run every oracle over one case.  ``None`` means the case passed."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.engine import lint_spec
    from repro.components.registry import default_ports, default_registry
    from repro.core.expander import expand
    from repro.errors import ReproError
    from repro.hinch import ProcessRuntime, ThreadedRuntime
    from repro.spacecake import SimRuntime

    registry = registry or default_registry()
    ports = default_ports(registry)

    try:
        spec = build_spec(case)
    except ReproError as exc:  # the generator must only emit buildable ASTs
        return CaseFailure("generator-invalid", f"build_spec raised: {exc}")

    diags = lint_spec(spec, ports=ports, name=f"fuzz-{case.seed}")
    errors = [d for d in diags if d.severity is Severity.ERROR]

    if case.mutation is not None:
        if not errors:
            return CaseFailure(
                "mutation-not-linted",
                f"mutation {case.mutation!r} produced no lint error",
            )
        # lint rejected it; the build must too, on every backend — never
        # reach job execution.  Constructing a runtime spawns nothing, so
        # /dev/shm must come out exactly as it went in.
        before = _shm_entries()
        accepted = []
        try:
            program = expand(spec, ports, name=f"fuzz-{case.seed}")
        except ReproError:
            return None  # agreement: rejected at expand
        for runtime_cls, width in ((ThreadedRuntime, {"nodes": 1}),
                                   (ProcessRuntime, {"workers": 1}),
                                   (SimRuntime, {"nodes": 1})):
            try:
                runtime_cls(program, registry, pipeline_depth=1,
                            max_iterations=case.iterations, **width)
                accepted.append(runtime_cls.__name__)
            except ReproError:
                pass  # agreement: rejected at build
        leaked = _shm_entries() - before
        if leaked:
            return CaseFailure(
                "shm-leak", f"refused build leaked {sorted(leaked)}")
        if accepted:
            return CaseFailure(
                "lint-build-disagreement",
                f"lint rejected ({errors[0].code}) but {', '.join(accepted)} "
                f"accepted mutation {case.mutation!r}",
            )
        return None

    if errors:
        return CaseFailure(
            "clean-case-linted",
            f"unmutated case flagged: {errors[0].code} {errors[0].message}",
        )

    try:
        program = expand(spec, ports, name=f"fuzz-{case.seed}")
    except ReproError as exc:
        return CaseFailure(
            "lint-build-disagreement",
            f"lint clean but expand raised: {exc}",
        )

    baseline: list | None = None
    baseline_desc = ""
    for run in _plan_runs(case):
        desc = _describe_run(run)
        before = _shm_entries()
        try:
            outputs, result = _execute(case, program, registry, run)
        except ReproError as exc:
            return CaseFailure(
                "run-raised", f"{desc}: {type(exc).__name__}: {exc}"
            )
        leaked = _shm_entries() - before
        if leaked:
            return CaseFailure(
                "shm-leak", f"{desc}: leaked {sorted(leaked)}"
            )
        if result.completed_iterations != case.iterations:
            return CaseFailure(
                "short-run",
                f"{desc}: completed {result.completed_iterations} of "
                f"{case.iterations} iterations",
            )
        unfired = [e for e in getattr(result, "fault_events", [])
                   if e.get("kind") == "unfired"]
        if unfired and run.get("faults"):
            return CaseFailure(
                "fault-unfired",
                f"{desc}: {unfired[0]['detail']} (indices are bounded by "
                "the minimum dispatch count, so every spec must fire)",
            )
        if len(outputs) != case.iterations:
            return CaseFailure(
                "missing-output",
                f"{desc}: sink collected {len(outputs)} of "
                f"{case.iterations} records",
            )
        if baseline is None:
            baseline, baseline_desc = outputs, desc
            continue
        for i, (a, b) in enumerate(zip(baseline, outputs)):
            if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
                return CaseFailure(
                    "output-mismatch",
                    f"iteration {i}: {desc} diverges from "
                    f"{baseline_desc} (shape {a.shape}->{b.shape}, "
                    f"first diff at "
                    f"{np.argwhere(a != b)[:1].tolist() if a.shape == b.shape else 'n/a'})",
                )
    return None

"""Command-line interface: the XSPCL processing tool.

Subcommands mirror the paper's toolchain (Fig. 1):

* ``validate`` — check an XSPCL document;
* ``lint``     — whole-program static analysis (deadlock, dead flow,
  reconfiguration safety, performance lint) with stable ``Xnnn`` codes;
* ``expand``   — inline procedures / replicate parallel shapes and report
  the resulting graph (optionally as DOT);
* ``run``      — execute a specification on one of the three backends:
  the threaded Hinch runtime, the multi-process runtime over shared
  memory, or the SpaceCAKE simulator;
* ``predict``  — PAMELA/SPC analytic performance estimate;
* ``codegen``  — emit the standalone Python glue module;
* ``figures``  — regenerate the paper's result figures (FIG8/FIG9/FIG10,
  ablations, prediction accuracy);
* ``apps``     — write the built-in applications as XSPCL XML;
* ``fuzz``     — differential scenario fuzzing across the backends
  (docs/fuzzing.md).

Performance is measured outside this tool, by ``benchmarks/e2e/run.py``
(docs/performance.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _load_program(path: str, name: str | None = None):
    from repro.components.registry import default_ports
    from repro.core import expand, parse_file

    spec = parse_file(path)
    return expand(spec, default_ports(), name=name or Path(path).stem)


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import Severity
    from repro.components.registry import default_ports
    from repro.core import parse_file
    from repro.core.validator import collect_diagnostics

    spec = parse_file(args.spec)
    registry = None if args.no_registry else default_ports()
    errors = collect_diagnostics(spec, registry=registry).at_or_above(
        Severity.ERROR
    )
    if errors:
        for d in errors:
            line = f":{d.line}" if d.line is not None else ""
            print(f"{args.spec}{line}: error: [{d.code}] {d.message}",
                  file=sys.stderr)
        print(f"{args.spec}: {len(errors)} validation error(s)",
              file=sys.stderr)
        return 1
    n_components = sum(
        1
        for proc in spec.procedures.values()
        for node in _walk(proc.body)
        if type(node).__name__ == "ComponentNode"
    )
    print(
        f"{args.spec}: OK ({len(spec.procedures)} procedure(s), "
        f"{n_components} component declaration(s))"
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_file
    from repro.analysis.diagnostics import Severity, render_json, render_text
    from repro.components.registry import default_ports, default_registry

    if args.no_registry:
        ports = classes = None
    else:
        classes = default_registry()
        ports = default_ports(classes)
    diagnostics = []
    for path in args.specs:
        diagnostics.extend(
            lint_file(path, ports=ports, classes=classes,
                      machine_nodes=args.nodes)
        )
    formats = _solved_formats(args.specs) if args.show_formats else None
    if args.format == "json":
        print(render_json(diagnostics, formats=formats))
    else:
        print(render_text(diagnostics))
        if formats is not None:
            _print_format_tables(formats)
    threshold = Severity.parse(args.fail_on)
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


def _solved_formats(specs: list[str]) -> dict:
    """Per-spec solved format tables for ``lint --show-formats``."""
    from repro.analysis import solve_formats

    tables: dict = {}
    for path in specs:
        try:
            program = _load_program(path)
        except ReproError:
            continue  # lint already reported why
        tables[path] = [
            {
                "options": solution.option_states,
                "streams": {
                    name: solved.to_dict()
                    for name, solved in sorted(solution.streams.items())
                },
            }
            for solution in solve_formats(program)
        ]
    return tables


def _print_format_tables(formats: dict) -> None:
    for path, solutions in formats.items():
        for solution in solutions:
            options = solution["options"]
            label = (
                ", ".join(f"{k}={'on' if v else 'off'}"
                          for k, v in sorted(options.items()))
                or "default"
            )
            print(f"\n{path}: solved formats [{label}]")
            for name, fmt in solution["streams"].items():
                shape = (
                    "x".join(str(d) for d in fmt["shape"])
                    if fmt["shape"] is not None
                    else "?"
                )
                origin = "declared" if fmt["declared"] else "inferred"
                print(
                    f"  {name:28s} kind={fmt['kind'] or '?':9s} "
                    f"dtype={fmt['dtype'] or '?':8s} shape={shape:12s} "
                    f"colorspace={fmt['colorspace'] or '?':6s} ({origin})"
                )


def _walk(body):
    from repro.core.ast import walk_body

    return walk_body(body)


def cmd_expand(args: argparse.Namespace) -> int:
    program = _load_program(args.spec)
    pg = program.build_graph()
    print(f"application {program.name!r}")
    print(f"  component instances : {len(program.components)}")
    print(f"  graph nodes / edges : {len(pg.graph)} / {pg.graph.num_edges}")
    print(f"  streams             : {len(pg.streams)}")
    print(f"  managers / options  : {len(program.managers)} / {len(program.options)}")
    if args.dot:
        from repro.graph.dot import taskgraph_to_dot

        Path(args.dot).write_text(taskgraph_to_dot(pg.graph, name=program.name))
        print(f"  DOT written to      : {args.dot}")
    return 0


def _usage_error(message: str) -> int:
    """Report a structured usage error (exit status 2, like argparse)."""
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _check_run_args(args: argparse.Namespace) -> str | None:
    """Up-front validation of ``run`` knob combinations.

    Catches the degenerate values that would otherwise reach the runtime
    and fail obscurely (``--nodes 0``) or hang
    (``--pipeline-depth 0`` admits no iterations), and the silently
    ignored combinations (a sim-only flag on another
    backend).  Returns the error message, or ``None`` when the knobs are
    coherent.
    """
    if args.nodes < 1:
        return f"--nodes must be >= 1, got {args.nodes}"
    if args.iterations < 0:
        return f"--iterations must be >= 0, got {args.iterations}"
    if args.pipeline_depth < 1:
        return (
            f"--pipeline-depth must be >= 1, got {args.pipeline_depth} "
            "(a depth of 0 admits no iterations)"
        )
    if args.execute and args.backend != "sim":
        return (
            f"--execute applies to the sim backend only; on --backend "
            f"{args.backend} it would be silently ignored"
        )
    return None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.components.registry import default_registry

    problem = _check_run_args(args)
    if problem is not None:
        return _usage_error(problem)
    program = _load_program(args.spec)
    registry = default_registry()
    if args.backend == "threaded":
        from repro.hinch import ThreadedRuntime

        runtime = ThreadedRuntime(
            program,
            registry,
            nodes=args.nodes,
            pipeline_depth=args.pipeline_depth,
            max_iterations=args.iterations,
        )
        result = runtime.run()
        where = ("the calling thread" if args.nodes == 1
                 else f"{args.nodes} worker threads")
        print(
            f"completed {result.completed_iterations} iterations in "
            f"{result.elapsed_seconds:.3f}s on {where}; "
            f"{result.reconfig_count} reconfiguration(s)"
        )
    elif args.backend == "process":
        from repro.hinch import ProcessRuntime

        runtime = ProcessRuntime(
            program,
            registry,
            workers=args.nodes,
            pipeline_depth=args.pipeline_depth,
            max_iterations=args.iterations,
        )
        result = runtime.run()
        fps = (
            result.completed_iterations / result.elapsed_seconds
            if result.elapsed_seconds > 0
            else 0.0
        )
        print(
            f"completed {result.completed_iterations} iterations in "
            f"{result.elapsed_seconds:.3f}s on {args.nodes} worker process(es) "
            f"({fps:.1f} frames/s); {result.reconfig_count} reconfiguration(s)"
        )
    else:
        from repro.spacecake import SimRuntime

        result = SimRuntime(
            program,
            registry,
            nodes=args.nodes,
            pipeline_depth=args.pipeline_depth,
            max_iterations=args.iterations,
            execute=args.execute,
        ).run()
        print(
            f"simulated {result.completed_iterations} iterations on "
            f"{args.nodes} node(s): {result.cycles / 1e6:,.1f} Mcycles, "
            f"utilization {result.utilization:.0%}, "
            f"{result.reconfig_count} reconfiguration(s)"
        )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.components.registry import default_registry
    from repro.prediction import (
        check_deadline,
        min_nodes_for_deadline,
        predict_run,
    )

    program = _load_program(args.spec)
    registry = default_registry()
    cycles = predict_run(
        program,
        registry,
        nodes=args.nodes,
        iterations=args.iterations,
        pipeline_depth=args.pipeline_depth,
    )
    print(
        f"predicted {cycles / 1e6:,.1f} Mcycles for {args.iterations} "
        f"iterations on {args.nodes} node(s)"
    )
    if args.deadline is not None:
        report = check_deadline(
            program, registry, nodes=args.nodes,
            frame_budget_cycles=args.deadline,
            pipeline_depth=args.pipeline_depth,
        )
        verdict = "MEETS" if report.meets_throughput else "MISSES"
        print(
            f"deadline {args.deadline:,.0f} cycles/frame: {verdict} "
            f"(initiation interval {report.initiation_interval:,.0f}, "
            f"headroom {report.headroom:+.0%}, "
            f"latency {report.latency_frames:.1f} frame(s))"
        )
        if not report.meets_throughput:
            best = min_nodes_for_deadline(
                program, registry, frame_budget_cycles=args.deadline,
                pipeline_depth=args.pipeline_depth,
            )
            if best is None:
                print("no node count up to 9 meets this deadline")
            else:
                print(f"smallest node count that meets it: {best.nodes}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    from repro.core.codegen import generate_glue

    program = _load_program(args.spec)
    source = generate_glue(
        program, module_name=Path(args.output).stem,
        default_iterations=args.iterations,
    )
    Path(args.output).write_text(source)
    print(f"glue module written to {args.output}")
    return 0


_FIGURES = {
    "fig8": "fig8_sequential_overhead",
    "fig9": "fig9_speedup",
    "fig10": "fig10_reconfiguration_overhead",
    "abl1": "ablation_fusion",
    "abl2": "ablation_pipeline_depth",
    "abl3": "ablation_spization",
    "pred": "prediction_accuracy",
}


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import figures as figures_mod
    from repro.bench.harness import Harness

    harness = Harness(frames_scale=args.scale)
    names = list(_FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        fn = getattr(figures_mod, _FIGURES[name])
        result = fn(harness)
        print(result.render())
        print()
    return 0


_APPS = {
    "pip1": ("pip", dict(n_pips=1)),
    "pip2": ("pip", dict(n_pips=2)),
    "pip12": ("pip", dict(n_pips=2, reconfigurable=True)),
    "jpip1": ("jpip", dict(n_pips=1)),
    "jpip2": ("jpip", dict(n_pips=2)),
    "jpip12": ("jpip", dict(n_pips=2, reconfigurable=True)),
    "blur3": ("blur", dict(size=3)),
    "blur5": ("blur", dict(size=5)),
    "blur35": ("blur", dict(reconfigurable=True)),
    "audio8": ("audio", dict(channels=8)),
    "audio12": ("audio", dict(channels=8, reconfigurable=True)),
}


def cmd_apps(args: argparse.Namespace) -> int:
    from repro import apps as apps_mod
    from repro.core import spec_to_xml

    kind, kwargs = _APPS[args.app]
    builder = getattr(apps_mod, f"build_{kind}")
    spec = builder(**kwargs)
    xml = spec_to_xml(spec)
    if args.output:
        Path(args.output).write_text(xml)
        print(f"{args.app} written to {args.output}")
    else:
        print(xml)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_campaign
    from repro.fuzz.campaign import replay_file

    if args.replay:
        case, failure = replay_file(args.replay)
        print(f"replaying {args.replay}: {case.describe()}")
        if failure is None:
            print("PASS — the case no longer fails")
            return 0
        print(f"FAIL {failure}")
        return 1

    if args.cases < 1:
        return _usage_error(f"--cases must be >= 1, got {args.cases}")
    if args.max_nodes < 2:
        return _usage_error(
            f"--max-nodes must be >= 2 (source + sink), got {args.max_nodes}"
        )

    def progress(case, failure):
        status = "FAIL" if failure else "ok  "
        line = f"  [{status}] case {case.seed}: {case.describe()}"
        if failure:
            line += f"\n         {failure}"
        print(line)

    report = run_campaign(
        seed=args.seed,
        cases=args.cases,
        max_nodes=args.max_nodes,
        out_dir=args.out,
        shrink=not args.no_shrink,
        progress=progress if args.verbose else None,
    )
    print(
        f"fuzz: {report.passed}/{report.cases} case(s) passed "
        f"(seed {args.seed}, max {args.max_nodes} nodes)"
    )
    for case, failure, path in report.failures:
        print(f"FAIL case {case.seed}: {failure}", file=sys.stderr)
        print(f"  shrunk repro: {path}", file=sys.stderr)
        print(
            f"  replay: PYTHONPATH=src python -m repro fuzz --replay {path}",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xspcl",
        description="XSPCL coordination-language toolchain (ICPP'07 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an XSPCL document")
    p.add_argument("spec")
    p.add_argument("--no-registry", action="store_true",
                   help="skip component-class checks")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "lint",
        help="static analysis: deadlock / dead-flow / reconfiguration-safety "
             "/ performance lint (docs/lint.md catalogues the codes)",
    )
    p.add_argument("specs", nargs="+", metavar="spec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on", choices=("error", "warning"), default="error",
                   help="lowest severity that causes a nonzero exit")
    p.add_argument("--no-registry", action="store_true",
                   help="skip component-class and graph-level checks")
    p.add_argument("--nodes", type=int, default=None,
                   help="target machine node count; enables the "
                        "over-slicing lint (X404)")
    p.add_argument("--show-formats", action="store_true",
                   help="append the solved per-stream format table for "
                        "every reachable configuration (X5xx pass)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("expand", help="expand and summarize an application")
    p.add_argument("spec")
    p.add_argument("--dot", help="write the task graph as DOT to this file")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("run", help="execute a specification")
    p.add_argument("spec")
    p.add_argument("--backend", choices=("threaded", "process", "sim"),
                   default="threaded")
    p.add_argument("--nodes", type=int, default=1,
                   help="worker threads, worker processes or simulated "
                        "nodes, by backend")
    p.add_argument("--iterations", type=int, default=16)
    p.add_argument("--pipeline-depth", type=int, default=5)
    p.add_argument("--execute", action="store_true",
                   help="sim backend: also run components functionally")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("predict", help="analytic performance estimate")
    p.add_argument("spec")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--iterations", type=int, default=16)
    p.add_argument("--pipeline-depth", type=int, default=5)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-frame cycle budget to verify (real-time check)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("codegen", help="emit a Python glue module")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iterations", type=int, default=16)
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("figure", choices=[*_FIGURES, "all"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="frame-count scale (1.0 = paper scale)")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("apps", help="dump a built-in application as XSPCL")
    p.add_argument("app", choices=sorted(_APPS))
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser(
        "fuzz",
        help="adversarial scenario fuzzing: random SP graphs x "
             "reconfiguration, differentially checked across "
             "backends (see docs/fuzzing.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="first case seed; case k uses seed+k (default: 0)")
    p.add_argument("--cases", type=int, default=25,
                   help="number of generated cases (default: 25)")
    p.add_argument("--max-nodes", type=int, default=8,
                   help="approximate expanded-component budget per case "
                        "(default: 8)")
    p.add_argument("--out", default="fuzz-failures", metavar="DIR",
                   help="directory for shrunk failure repros "
                        "(default: fuzz-failures)")
    p.add_argument("--no-shrink", action="store_true",
                   help="persist failing cases unshrunk")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-check one persisted failure case and exit")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print a line per case")
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

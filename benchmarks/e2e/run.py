"""The repo benchmark: 4 workloads, bounded end-to-end metrics, per-layer numbers.

    python benchmarks/e2e/run.py                  every workload, tracing off
    python benchmarks/e2e/run.py --trace 1        timed rounds, per-layer pass, trace-*.json
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --quick          self-check, numbers meaningless
    python benchmarks/e2e/run.py --aa 5           A/A table against the bounds

Workloads run one after the other, each in a child interpreter that leads
its own session.  With ``--workload`` the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; without it the last line maps each workload to that object.
Definitions, findings and how to read the trace are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hygiene  # noqa: E402

CHILD_TIMEOUT_S = 170
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: the session of the workload being measured, for the signal handlers
_live_session: int | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the DCT is a BLAS matmul: keep it on the calling thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, *, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict[str, Any]:
    """Measure one workload in its own session; wait until that is empty."""
    global _live_session
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    _live_session = proc.pid
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        hygiene.signal_session(proc.pid, signal.SIGTERM)
        stdout, _ = proc.communicate()
        timed_out = True
    left_clean = hygiene.wait_session_gone(proc.pid)
    _live_session = None

    lines = stdout.strip().splitlines()
    if timed_out or proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{name}: child {'timed out' if timed_out else 'failed'} "
            f"(exit {proc.returncode}); no result")
    result = json.loads(lines[-1])
    if not left_clean:
        # something outlived the child and had to be signalled
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
        result["errors"].append("processes left in the session were killed")
    return result


def on_signal(signum: int, frame: Any) -> None:
    """Kill the live session first, then leave with a failure code."""
    if _live_session is not None:
        hygiene.signal_session(_live_session, signal.SIGTERM)
        hygiene.wait_session_gone(_live_session)
    sys.exit(128 + signum)


def contract(result: dict[str, Any]) -> dict[str, Any]:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def print_result(name: str, result: dict[str, Any]) -> None:
    print(f"== {name}: ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']} correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result["detail"].get("run_lengths", {}).items():
        print(f"  ({name} = {value:.3g})")
    for error in result["errors"]:
        print(f"  ! {error}")
    sys.stdout.flush()


def invocation(names: list[str], args: argparse.Namespace,
               *, echo: bool = True) -> dict[str, dict[str, Any]]:
    results = {}
    for name in names:
        results[name] = run_workload(
            name, seed=args.seed, seconds=args.seconds, trace=args.trace,
            quick=args.quick)
        if echo:
            print_result(name, results[name])
    return results


def values_of(results: dict[str, dict[str, Any]]) -> dict[str, dict[str, float]]:
    return {w: {m: e["value"] for m, e in r["metrics"].items()}
            for w, r in results.items()}


def aa(names: list[str], args: argparse.Namespace, spec: dict) -> bool:
    """Two alternating sets (A B A B ...) of N invocations of the same code."""
    sets: dict[str, list] = {"A": [], "B": []}
    for i in range(2 * args.aa):
        label = "AB"[i % 2]
        start = time.monotonic()
        sets[label].append(values_of(invocation(names, args, echo=False)))
        print(f"invocation {i + 1}/{2 * args.aa} (set {label}) "
              f"{time.monotonic() - start:.0f} s", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for label, runs in sets.items():
        (out / f"aa-{label}.json").write_text(json.dumps(runs))
    return compare.report(sets["A"], sets["B"], spec, symmetric=True)


# -- --quick self-check -----------------------------------------------------


def check_names(spec: dict, printed: dict[str, set[str]]) -> list[str]:
    problems = []
    tiers = {"end_to_end": 16, "per_layer": 128}
    workloads = [w["name"] for w in spec["workloads"]]
    if len(workloads) > 8:
        problems.append("more than 8 workloads")
    for tier, limit in tiers.items():
        listed = [m["name"] for m in spec[tier]]
        if len(listed) > limit:
            problems.append(f"more than {limit} {tier} metrics")
        if set(listed) != printed[tier]:
            problems.append(
                f"BENCHMARK.json {tier} differs from the run: "
                f"{sorted(set(listed) ^ printed[tier])}")
        workloads += listed
    problems += [f"bad name {n!r}" for n in workloads if not NAME.fullmatch(n)]
    return problems


def check_interrupt(name: str) -> list[str]:
    """SIGINT a nested driver while a ProcessRuntime run is live.

    Nothing of it may survive: no process of either session and no
    ``/dev/shm`` segment.  ``name`` must be a workload whose oracle run on
    the process backend lasts a few tenths of a second, so that the signal
    arrives while workers and segments exist.
    """
    shm_before = hygiene.shm_entries()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name],
        stdout=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + 20

    def live_run() -> bool:
        # segments exist only between a pool's creation and its close
        return bool(hygiene.shm_entries() - shm_before)

    # the nested driver's child leads a session of its own: find it, then
    # wait for a run that is still live a moment after it was first seen
    session: int | None = None
    caught = False
    while not caught and time.monotonic() < deadline:
        time.sleep(0.02)
        if session is None:
            session = next(iter(hygiene.children_of(proc.pid)), None)
        elif live_run():
            time.sleep(0.1)
            caught = live_run()
    if not caught:
        proc.kill()
        proc.wait()
        if session is not None:
            hygiene.signal_session(session, signal.SIGTERM)
            hygiene.wait_session_gone(session)
        return ["no live ProcessRuntime run was seen in the nested driver"]
    proc.send_signal(signal.SIGINT)
    code = proc.wait()
    problems = []
    if code == 0:
        problems.append("interrupted driver exited 0")
    if hygiene.session_members(session) or hygiene.session_members(proc.pid):
        problems.append("processes survived SIGINT")
        hygiene.signal_session(session, signal.SIGKILL)
        hygiene.signal_session(proc.pid, signal.SIGKILL)
    leaked = hygiene.shm_entries() - shm_before
    if leaked:
        problems.append(f"/dev/shm entries survived SIGINT: {sorted(leaked)}")
    return problems


def quick(names: list[str], args: argparse.Namespace, spec: dict) -> bool:
    problems: list[str] = []
    printed: dict[str, set[str]] = {}
    for tier, trace in (("end_to_end", 0), ("per_layer", 1)):
        args.trace = trace
        results = invocation(names, args)
        printed[tier] = set().union(*(r["metrics"] for r in results.values()))
        problems += [f"{w}: {e}" for w, r in results.items()
                     for e in r["errors"]]
    problems += check_names(spec, printed)
    problems += check_interrupt("pip_bandwidth")
    for problem in problems:
        print(f"  ! {problem}")
    return not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds the untraced pass spaces its set-up "
                             "builds over (default: BENCHMARK.json "
                             "run_seconds); the traced pass is fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass that gives the per-layer "
                             "numbers (the issue's --traced)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also save this invocation for compare.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    names = [args.workload] if args.workload else known
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    shm_before = hygiene.shm_entries()

    ok = True
    last_line = None
    if args.quick:
        ok = quick(names, args, spec)
        print("QUICK PASS" if ok else "QUICK FAIL")
    elif args.aa:
        ok = aa(names, args, spec)
    else:
        results = invocation(names, args)
        if args.json:
            args.json.write_text(json.dumps([values_of(results)]))
        last_line = (contract(results[args.workload]) if args.workload
                     else {w: contract(r) for w, r in results.items()})

    leaked = hygiene.shm_entries() - shm_before
    if leaked:
        print(f"leak: new /dev/shm entries {sorted(leaked)}", file=sys.stderr)
        return 1
    if last_line is not None:
        print(json.dumps(last_line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

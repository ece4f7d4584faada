"""Tests for the adversarial scenario fuzzer (`repro.fuzz`).

Covers generator determinism and JSON round-tripping, the lint/build
oracle over every deliberate mutation, shrinker invariants (monotone
simplification, failure-kind preservation), campaign artifact handling,
the `fuzz` CLI entry point, and the committed shrunk regression case
that originally exposed the discarded-diagnostics format bug.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.diagnostics import DiagnosticBag, Severity
from repro.analysis.engine import lint_spec
from repro.cli import main
from repro.components.registry import default_ports, default_registry
from repro.core.expander import expand
from repro.errors import StreamFormatError
from repro.fuzz import (
    CaseFailure,
    build_spec,
    check_case,
    generate_case,
    run_campaign,
    shrink_case,
)
from repro.fuzz.campaign import replay_file, save_failure
from repro.fuzz.generator import MUTATIONS, FuzzCase, case_from_dict

FIXTURE = Path(__file__).with_name("case-4242.json")


def _static_case(**overrides) -> FuzzCase:
    base = dict(
        seed=9000,
        palette="video",
        width=16,
        height=12,
        iterations=2,
        stages=[],
        reconfig=None,
        knobs={"workers": 1, "depth": 1},
        mutation=None,
    )
    base.update(overrides)
    return FuzzCase(**base)


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for seed in range(25):
        assert generate_case(seed).to_json() == generate_case(seed).to_json()


def test_generator_varies_across_seeds():
    shapes = {generate_case(seed).to_json() for seed in range(25)}
    assert len(shapes) > 20  # near-unique; collisions would gut coverage


def test_case_json_round_trip():
    for seed in (0, 7, 42, 4242):
        case = generate_case(seed)
        assert case_from_dict(json.loads(case.to_json())) == case


def test_generated_cases_always_build():
    # the generator must only emit buildable ASTs, mutants included
    for seed in range(40):
        build_spec(generate_case(seed))


def test_max_nodes_bounds_stage_cost():
    for seed in range(40):
        case = generate_case(seed, max_nodes=6)
        cost = sum(s["slices"] * (2 if s["kind"] == "blur" else 1)
                   for s in case.stages)
        assert cost <= 6 - 2


# -- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_every_mutation_is_lint_visible_and_build_rejected(mutation):
    # agreement: lint flags the corruption AND the build refuses it,
    # so check_case reports no failure
    case = _static_case(mutation=mutation)
    assert check_case(case) is None


def test_clean_static_case_passes_all_oracles():
    assert check_case(_static_case()) is None


def test_regression_case_4242_replays_clean():
    """The committed shrunk case: X501 must be a *build* error too.

    Before `solve_formats_or_raise`, the runtimes dropped the format
    solver's diagnostic bag, so this lint-rejected spec ran anyway
    (a 13-row sink silently consuming 12-row planes).
    """
    case, failure = replay_file(FIXTURE)
    assert failure is None, f"regression resurfaced: {failure}"

    # pin both halves of the agreement explicitly
    registry = default_registry()
    ports = default_ports(registry)
    spec = build_spec(case)
    codes = {d.code for d in lint_spec(spec, ports=ports)
             if d.severity is Severity.ERROR}
    assert "X501" in codes

    from repro.hinch import ProcessRuntime, ThreadedRuntime
    from repro.spacecake import SimRuntime

    program = expand(spec, ports)
    for runtime_cls, width in ((ThreadedRuntime, {"nodes": 1}),
                               (ProcessRuntime, {"workers": 1}),
                               (SimRuntime, {"nodes": 1})):
        with pytest.raises(StreamFormatError, match="X501"):
            runtime_cls(program, registry, pipeline_depth=1,
                        max_iterations=case.iterations, **width)


# -- shrinker ----------------------------------------------------------------


def _loaded_case() -> FuzzCase:
    return _static_case(
        iterations=6,
        stages=[{"kind": "convert", "slices": 3},
                {"kind": "blur", "slices": 2},
                {"kind": "convert", "slices": 1}],
        reconfig={"stage": 1, "toggles": 2},
        knobs={"workers": 3, "depth": 4},
    )


def test_shrinker_strips_everything_irrelevant():
    # synthetic oracle: fails whenever at least one stage remains
    def check(case):
        if case.stages:
            return CaseFailure("synthetic", f"{len(case.stages)} stage(s)")
        return None

    case = _loaded_case()
    shrunk, failure = shrink_case(case, check(case), check)
    assert failure.kind == "synthetic"
    assert len(shrunk.stages) == 1
    assert shrunk.reconfig is None
    assert shrunk.iterations == 2
    assert shrunk.knobs["depth"] == 1
    assert shrunk.knobs["workers"] == 1


def test_shrinker_never_trades_failure_kinds():
    # two-stage cases fail one way, one-stage cases a *different* way;
    # shrinking the former must stop before crossing into the latter
    def check(case):
        if len(case.stages) >= 2:
            return CaseFailure("deep", "two or more stages")
        if len(case.stages) == 1:
            return CaseFailure("shallow", "exactly one stage")
        return None

    case = _loaded_case()
    shrunk, failure = shrink_case(case, check(case), check)
    assert failure.kind == "deep"
    assert len(shrunk.stages) == 2


def test_shrinker_respects_evaluation_budget():
    calls = 0

    def check(case):
        nonlocal calls
        calls += 1
        return CaseFailure("stuck", "always fails, never simplifiable")

    # every proposal "fails the same way", so the loop would restart
    # forever without the budget
    from repro.fuzz import shrink

    case = _loaded_case()
    shrink_case(case, check(case), check)
    assert calls <= shrink.MAX_EVALS


# -- campaign ----------------------------------------------------------------


def test_campaign_persists_shrunk_failures_with_replay_line(
    tmp_path, monkeypatch
):
    def fake_check(case):
        if case.stages:
            return CaseFailure("synthetic", "stage present")
        return None

    monkeypatch.setattr("repro.fuzz.campaign.check_case", fake_check)
    # seeds chosen so at least one generated case has stages
    report = run_campaign(seed=0, cases=6, out_dir=tmp_path)
    assert not report.ok
    assert report.cases == 6
    assert report.passed + len(report.failures) == 6
    for case, failure, path in report.failures:
        assert failure.kind == "synthetic"
        assert len(case.stages) == 1  # shrunk
        payload = json.loads(Path(path).read_text())
        assert payload["_failure"]["kind"] == "synthetic"
        assert "--replay" in payload["_replay"]


def test_save_failure_replay_round_trip(tmp_path):
    case = _static_case()
    path = save_failure(case, CaseFailure("demo", "detail"), tmp_path)
    replayed, failure = replay_file(path)
    assert replayed == case  # metadata keys stripped before replay
    assert failure is None


def test_campaign_runs_one_real_case(tmp_path):
    report = run_campaign(seed=0, cases=1, out_dir=tmp_path)
    assert report.ok
    assert report.passed == 1


# -- CLI ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--cases", "0"],
        ["fuzz", "--max-nodes", "1"],
    ],
)
def test_fuzz_cli_rejects_degenerate_arguments(argv, capsys):
    assert main(argv) == 2
    assert "usage error:" in capsys.readouterr().err


def test_fuzz_cli_replays_fixture(capsys):
    assert main(["fuzz", "--replay", str(FIXTURE)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "corrupt,message",
    [
        # a case saved while cases carried fault injections
        (lambda text: text.replace('"height"', '"faults": [],\n  "height"'),
         "unknown key(s) faults"),
        (lambda text: text.replace('  "height": 12,\n', ""),
         "missing key(s) height"),
        (lambda text: text.rstrip()[:-1], "not JSON"),
    ],
    ids=["unknown-key", "missing-key", "invalid-json"],
)
def test_fuzz_cli_rejects_a_malformed_case_file(tmp_path, capsys, corrupt,
                                                message):
    path = tmp_path / "case.json"
    path.write_text(corrupt(FIXTURE.read_text()))
    assert main(["fuzz", "--replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err


def test_fuzz_cli_reports_failures(tmp_path, monkeypatch, capsys):
    def fake_check(case):
        return CaseFailure("synthetic", "forced")

    monkeypatch.setattr("repro.fuzz.campaign.check_case", fake_check)
    assert main(["fuzz", "--seed", "0", "--cases", "2", "--no-shrink",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "synthetic" in err
    assert "--replay" in err

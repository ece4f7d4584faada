"""Tests for the xspcl command-line toolchain."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def blur_xml(tmp_path):
    path = tmp_path / "blur.xml"
    assert main(["apps", "blur3", "-o", str(path)]) == 0
    return path


def test_apps_dump_and_validate(blur_xml, capsys):
    assert main(["validate", str(blur_xml)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_apps_dump_to_stdout(capsys):
    assert main(["apps", "pip1"]) == 0
    out = capsys.readouterr().out
    assert "<xspcl" in out
    assert 'class="downscale_field"' in out


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text(
        "<xspcl><procedure name='main'><body>"
        "<component name='x' class='no_such_class'/>"
        "</body></procedure></xspcl>"
    )
    assert main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_no_registry_skips_classes(tmp_path):
    spec = tmp_path / "custom.xml"
    spec.write_text(
        "<xspcl><procedure name='main'><body>"
        "<component name='x' class='my_custom_thing'>"
        "<stream port='p' ref='s'/></component>"
        "</body></procedure></xspcl>"
    )
    assert main(["validate", str(spec), "--no-registry"]) == 0


def test_expand_summary_and_dot(blur_xml, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["expand", str(blur_xml), "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "component instances : 20" in out
    assert dot.read_text().startswith("digraph")


def test_run_threaded(blur_xml, capsys):
    assert main(["run", str(blur_xml), "--nodes", "2", "--iterations", "4"]) == 0
    assert "completed 4 iterations" in capsys.readouterr().out


def test_run_sim(blur_xml, capsys):
    assert main([
        "run", str(blur_xml), "--backend", "sim", "--nodes", "3",
        "--iterations", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "simulated 8 iterations" in out
    assert "Mcycles" in out


@pytest.mark.parametrize("backend", ["threaded", "process", "sim"])
def test_run_refuses_lint_rejected_spec_on_every_backend(backend, capsys):
    # the build contract (solve -> expectations -> converters) is the same
    # pipeline on all three; the simulator used to skip it and "run" this
    fixture = Path(__file__).parent / "analysis/fixtures/format_mismatch.xml"
    assert main([
        "run", str(fixture), "--backend", backend, "--iterations", "2",
    ]) != 0
    captured = capsys.readouterr()
    assert "X501" in captured.err
    assert "simulated" not in captured.out


def test_predict(blur_xml, capsys):
    assert main(["predict", str(blur_xml), "--nodes", "4",
                 "--iterations", "8"]) == 0
    assert "predicted" in capsys.readouterr().out


def test_codegen_roundtrip(blur_xml, tmp_path, capsys):
    out_py = tmp_path / "glue.py"
    assert main(["codegen", str(blur_xml), "-o", str(out_py)]) == 0
    source = out_py.read_text()
    compile(source, str(out_py), "exec")
    namespace: dict = {}
    exec(compile(source, "glue", "exec"), namespace)
    assert len(namespace["build_program"]().components) == 20


def test_figures_quick(capsys):
    # tiny scale so the CLI path is exercised quickly
    assert main(["figures", "fig8", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "FIG8" in out
    assert "Paper reports" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figures", "fig99"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


# -- run-knob validation (fuzzer-pinned usage errors) ------------------------


@pytest.mark.parametrize(
    "extra",
    [
        ["--batch", "0"],
        ["--workers", "0"],
        ["--nodes", "0"],
        ["--iterations", "-1"],
        ["--pipeline-depth", "0"],
        ["--max-retries", "-1"],
        ["--backend", "process", "--watchdog", "0"],
    ],
    ids=lambda extra: " ".join(extra),
)
def test_run_rejects_degenerate_knobs(blur_xml, capsys, extra):
    assert main(["run", str(blur_xml), *extra]) == 2
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--backend", "sim", "--inject-fault", "kill:1"],
        ["--backend", "threaded", "--inject-fault", "kill:1"],
        ["--backend", "threaded", "--batch", "4"],
        ["--backend", "sim", "--fuse"],
        ["--backend", "threaded", "--autotune"],
        ["--backend", "process", "--deadline", "50"],
        ["--backend", "process", "--autotune", "--objective", "deadline"],
    ],
    ids=lambda extra: " ".join(extra),
)
def test_run_rejects_incoherent_knob_combinations(blur_xml, capsys, extra):
    assert main(["run", str(blur_xml), *extra]) == 2
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    ["kill:1,slow:1:5", "kill:0", "slow:2", "frob:1", "kill:one"],
    ids=["duplicate-index", "zero-index", "slow-missing-ms",
         "unknown-kind", "non-numeric"],
)
def test_run_rejects_bad_fault_specs_up_front(blur_xml, capsys, spec):
    assert main([
        "run", str(blur_xml), "--backend", "process",
        "--inject-fault", spec,
    ]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err


def test_run_warns_about_unfired_faults(blur_xml, capsys):
    assert main([
        "run", str(blur_xml), "--backend", "process", "--workers", "1",
        "--iterations", "2", "--inject-fault", "kill:999",
    ]) == 0
    captured = capsys.readouterr()
    assert "completed 2 iterations" in captured.out
    assert "fault recovery: unfired=1" in captured.out
    assert "kill:999 never fired" in captured.err

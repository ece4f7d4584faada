"""CLI tests: ``xspcl lint`` (and the collect-all ``validate``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from .conftest import CLEAN, sink, source, wrap

MULTI_ERROR = wrap(
    '<component name="x" class="no_such_class">'
    '<stream port="p" ref="s"/></component>\n'
    '<call procedure="missing"/>\n'
)

WARN_ONLY = wrap(  # dead stream: warning but no error
    source("src", "s") + sink("snk", "s") + source("src2", "dead")
)


@pytest.fixture()
def spec_file(tmp_path):
    def write(text, name="spec.xml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_lint_clean_spec_exits_zero(spec_file, capsys):
    assert main(["lint", spec_file(CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_errors_exit_nonzero_and_list_all(spec_file, capsys):
    assert main(["lint", spec_file(MULTI_ERROR)]) == 1
    out = capsys.readouterr().out
    assert "[X114]" in out
    assert "[X103]" in out


def test_lint_fail_on_warning(spec_file, capsys):
    path = spec_file(WARN_ONLY)
    assert main(["lint", path]) == 0
    capsys.readouterr()
    assert main(["lint", path, "--fail-on", "warning"]) == 1
    assert "[X204]" in capsys.readouterr().out


def test_lint_json_format(spec_file, capsys):
    assert main(["lint", spec_file(WARN_ONLY), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["warnings"] >= 1
    codes = [d["code"] for d in payload["diagnostics"]]
    assert "X204" in codes
    assert all(d["path"] for d in payload["diagnostics"])


def test_lint_multiple_files(spec_file, capsys):
    a = spec_file(CLEAN, "a.xml")
    b = spec_file(MULTI_ERROR, "b.xml")
    assert main(["lint", a, b]) == 1
    out = capsys.readouterr().out
    assert "b.xml" in out


def test_lint_parse_error_is_x001(spec_file, capsys):
    assert main(["lint", spec_file("<xspcl><procedure")]) == 1
    assert "[X001]" in capsys.readouterr().out


def test_lint_no_registry_skips_graph_checks(spec_file, capsys):
    custom = wrap(
        '<component name="x" class="my_custom_thing">'
        '<stream port="p" ref="s"/></component>\n'
    )
    assert main(["lint", spec_file(custom), "--no-registry"]) == 0


def test_lint_show_formats_json(spec_file, capsys):
    path = spec_file(CLEAN)
    assert main(["lint", path, "--format", "json", "--show-formats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (solutions,) = [payload["formats"][path]]
    streams = solutions[0]["streams"]
    assert streams["raw"]["kind"] == "plane"
    assert streams["raw"]["dtype"] == "uint8"
    assert streams["raw"]["shape"] == [8, 8]
    assert streams["raw"]["declared"] is True


def test_lint_show_formats_text(spec_file, capsys):
    assert main(["lint", spec_file(CLEAN), "--show-formats"]) == 0
    out = capsys.readouterr().out
    assert "solved formats" in out
    assert "dtype=uint8" in out


def test_mismatch_fixture_fails_before_any_runtime(capsys):
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "format_mismatch.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    assert "[X501]" in capsys.readouterr().out


def test_param_type_fixture_fails_before_any_runtime(capsys):
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "param_type.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "[X120]" in out
    assert "param 'size' must be an integer in 1..16384, got 'x'" in out


def test_validate_reports_every_error(spec_file, capsys):
    assert main(["validate", spec_file(MULTI_ERROR)]) == 1
    err = capsys.readouterr().err
    assert "[X114]" in err
    assert "[X103]" in err
    assert "2 validation error(s)" in err

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


def test_unsolved_buffer_fixture_fails_before_any_runtime(capsys):
    """A sliced writer whose stream has no solved plane format has no
    buffer plan: X507 at lint, and every backend refuses to build it."""
    from pathlib import Path

    fixture = str(Path(__file__).parent / "fixtures" / "unsolved_buffer.xml")
    assert main(["lint", fixture, "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "unsolved_buffer.xml:20: error: [X507]" in out
    assert "1 error(s)" in out
    for backend in ("threaded", "process", "sim"):
        assert main(["run", fixture, "--backend", backend,
                     "--iterations", "1"]) == 1
        assert "X507" in capsys.readouterr().err


def test_param_type_fixture_fails_before_any_runtime(capsys):
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "param_type.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "[X120]" in out
    assert "param 'size' must be an integer in 1..16384, got 'x'" in out


def test_literal_reconfigure_request_is_bound_at_lint(capsys):
    """A component's own ``<reconfigure request>`` runs at creation, so
    lint binds its literal assignments as the run would."""
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "reconfigure_type.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "reconfigure_type.xml:13: error: [X120]" in out
    assert "param 'sigma' must be a finite number >= 0.0, got 'x'" in out


def test_manager_reconfigure_request_is_bound_at_lint(capsys):
    """A manager's literal broadcast binds against each member class."""
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "manager_request_type.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "manager_request_type.xml:20: error: [X120]" in out
    assert ("manager 'mgr' request 'factor=x': component 'scale': param "
            "'factor' must be an integer in 1..16384, got 'x'") in out
    assert "1 error(s)" in out  # once per class, not once per copy


def test_slice_request_on_a_copy_is_an_error(capsys):
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "slice_request.xml"
    assert main(["lint", str(fixture), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "slice_request.xml:16: error: [X121] component 'h3'" in out
    assert "1 error(s)" in out


PIP12_HANDLER = '<on event="toggle_pip" action="toggle" option="pip_opt"/>'


@pytest.mark.parametrize("request_, expected", [
    ("factor=x", [
        "[X116] manager 'mgr' request 'factor=x': component 'pip1' got "
        "unknown params ['factor']",
        "[X116] manager 'mgr' request 'factor=x': component 'sb1_y/blend' "
        "got unknown params ['factor']",
        "[X120] manager 'mgr' request 'factor=x': component 'sb1_y/scale': "
        "param 'factor' must be an integer in 1..16384, got 'x'",
    ]),
    ("slice=0/2", ["[X121] manager 'mgr' request 'slice=0/2': a broadcast "
                   "may not set 'slice'"]),
], ids=["factor", "slice"])
def test_pip12_manager_request_is_checked(spec_file, capsys, request_,
                                          expected):
    from pathlib import Path

    shipped = (Path(__file__).resolve().parents[2] / "examples" / "specs"
               / "pip12.xml").read_text()
    handler = (f'<on event="toggle_pip" action="reconfigure" '
               f'request="{request_}"/>')
    text = shipped.replace(PIP12_HANDLER, PIP12_HANDLER + handler)
    assert main(["lint", spec_file(text), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    for line in expected:
        assert line in out
    assert f"{len(expected)} error(s)" in out


def test_runtime_tests_broadcasts_lint_clean():
    """The ``pos=`` broadcasts the runtime tests send bind on every member."""
    from repro.analysis import lint_spec
    from repro.components.registry import default_ports
    from repro.core import AppBuilder
    from tests.hinch.helpers import PORTS
    from tests.hinch.test_runtime import _moving_pip

    b = AppBuilder()
    main_ = b.procedure("main")
    main_.component("src", "producer", streams={"output": "a"})
    main_.component("tick", "event_sender",
                    streams={"input": "a", "output": "b"},
                    params={"queue": "ui", "period": 3, "event": "move"})
    with main_.manager("m", queue="ui") as mgr:
        mgr.on("move", "reconfigure", request="pos=5,5")
        main_.component("r", "reconfigurable",
                        streams={"input": "b", "output": "c"})
    main_.component("snk", "collector", streams={"input": "c"})
    for spec, ports in ((_moving_pip((2, 3), move=True).build(),
                         default_ports()), (b.build(), PORTS)):
        assert not [d for d in lint_spec(spec, ports=ports)
                    if d.severity.name == "ERROR"]


def test_validate_reports_every_error(spec_file, capsys):
    assert main(["validate", spec_file(MULTI_ERROR)]) == 1
    err = capsys.readouterr().err
    assert "[X114]" in err
    assert "[X103]" in err
    assert "2 validation error(s)" in err

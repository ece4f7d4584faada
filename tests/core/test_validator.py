"""Tests for semantic validation of XSPCL specifications."""

from __future__ import annotations

import pytest

from repro.analysis import Severity, lint_string
from repro.components.registry import default_ports
from repro.core import AppBuilder, expand, parse_string, validate
from repro.errors import ValidationError

BLUR = """<xspcl version="1.0"><procedure name="main"><body>
  <component name="src" class="luma_source"><stream port="output" ref="a"/>
    <param name="width" value="16"/><param name="height" value="16"/>
  </component>
  <component name="blur" class="blur_h_field">
    <stream port="input" ref="a"/><stream port="output" ref="b"/>
    <param name="width" value="16"/><param name="height" value="16"/>
    <param name="size" value="3"/>
  </component>
  <component name="sink" class="plane_sink"><stream port="input" ref="b"/>
    <param name="width" value="16"/><param name="height" value="16"/>
  </component>
</body></procedure></xspcl>"""


def build_minimal() -> AppBuilder:
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "data"})
    main.component("snk", "sink", streams={"input": "data"})
    return b


def test_valid_minimal_passes(registry):
    validate(build_minimal().build(), registry=registry)


def test_missing_main_rejected():
    b = AppBuilder()
    b.procedure("notmain").component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="main"):
        validate(b.build())


def test_main_with_formals_rejected():
    b = AppBuilder()
    b.procedure("main", stream_formals=["in"]).component(
        "x", "sink", streams={"input": "${in}"}
    )
    with pytest.raises(ValidationError, match="must not declare formal"):
        validate(b.build())


def test_unknown_call_target_rejected():
    b = AppBuilder()
    b.procedure("main").call("ghost")
    with pytest.raises(ValidationError, match="unknown procedure"):
        validate(b.build())


def test_direct_recursion_rejected():
    b = AppBuilder()
    b.procedure("main").call("loop")
    b.procedure("loop").call("loop", name="again")
    with pytest.raises(ValidationError, match="recursive"):
        validate(b.build())


def test_mutual_recursion_rejected():
    b = AppBuilder()
    b.procedure("main").call("a")
    b.procedure("a").call("b")
    b.procedure("b").call("a", name="back")
    with pytest.raises(ValidationError, match="recursive"):
        validate(b.build())


def test_diamond_call_graph_allowed(registry):
    # a calls c, b calls c — a DAG, not recursion.
    b = AppBuilder()
    main = b.procedure("main")
    main.call("a", streams={"s": "x"})
    main.call("b", streams={"s": "x2"})
    pa = b.procedure("a", stream_formals=["s"])
    pa.call("c", streams={"t": "${s}"})
    pb = b.procedure("b", stream_formals=["s"])
    pb.call("c", streams={"t": "${s}"})
    pc = b.procedure("c", stream_formals=["t"])
    pc.component("src", "source", streams={"output": "${t}"})
    validate(b.build(), registry=registry)


def test_call_missing_stream_arg():
    b = AppBuilder()
    b.procedure("main").call("p")
    b.procedure("p", stream_formals=["in"]).component(
        "x", "sink", streams={"input": "${in}"}
    )
    with pytest.raises(ValidationError, match="missing stream args"):
        validate(b.build())


def test_call_unknown_stream_arg():
    b = AppBuilder()
    b.procedure("main").call("p", streams={"bogus": "x"})
    b.procedure("p").component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="unknown stream args"):
        validate(b.build())


def test_call_missing_required_param():
    b = AppBuilder()
    b.procedure("main").call("p")
    b.procedure("p", param_formals={"gain": None}).component(
        "x", "source", streams={"output": "s"}, params={"rate": "${gain}"}
    )
    with pytest.raises(ValidationError, match="missing required params"):
        validate(b.build())


def test_call_default_param_may_be_omitted(registry):
    b = AppBuilder()
    b.procedure("main").call("p")
    b.procedure("p", param_formals={"gain": 2}).component(
        "x", "source", streams={"output": "s"}, params={"rate": "${gain}"}
    )
    validate(b.build(), registry=registry)


def test_call_unknown_param():
    b = AppBuilder()
    b.procedure("main").call("p", params={"bogus": 1})
    b.procedure("p").component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="unknown params"):
        validate(b.build())


def test_duplicate_instance_names():
    b = AppBuilder()
    main = b.procedure("main")
    main.component("x", "source", streams={"output": "a"})
    main.component("x", "sink", streams={"input": "a"})
    with pytest.raises(ValidationError, match="duplicate component instance"):
        validate(b.build())


def test_unknown_placeholder_rejected():
    b = AppBuilder()
    b.procedure("main").call("p", streams={"in": "raw"})
    b.procedure("p", stream_formals=["in"]).component(
        "x", "sink", streams={"input": "${typo}"}
    )
    with pytest.raises(ValidationError, match="unknown formal"):
        validate(b.build())


def test_empty_placeholder_rejected():
    b = AppBuilder()
    b.procedure("main").component("x", "source", streams={"output": "${}"})
    with pytest.raises(ValidationError, match="empty"):
        validate(b.build())


def test_option_outside_manager_rejected():
    b = AppBuilder()
    main = b.procedure("main")
    with main.option("o"):
        main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="not contained in any manager"):
        validate(b.build())


def test_handler_unknown_option_rejected():
    b = AppBuilder()
    main = b.procedure("main")
    with main.manager("m", queue="q") as mgr:
        mgr.on("e", "toggle", option="ghost")
        main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="unknown option"):
        validate(b.build())


def test_handler_resolves_option_in_own_manager(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    with main.manager("m", queue="q") as mgr:
        mgr.on("e", "toggle", option="o")
        with main.option("o", enabled=True):
            main.component("f", "filter", streams={"input": "a", "output": "b"})
    main.component("snk", "sink", streams={"input": "b"})
    validate(b.build(), registry=registry)


def test_nested_manager_owns_its_options():
    # Outer manager handler cannot see inner manager's option.
    b = AppBuilder()
    main = b.procedure("main")
    with main.manager("outer", queue="q") as outer:
        outer.on("e", "toggle", option="inner_opt")
        with main.manager("inner", queue="q2"):
            with main.option("inner_opt"):
                main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="unknown option"):
        validate(b.build())


def test_duplicate_option_in_manager():
    b = AppBuilder()
    main = b.procedure("main")
    with main.manager("m", queue="q"):
        with main.option("o"):
            main.component("x", "source", streams={"output": "s"})
        with main.option("o"):
            main.component("y", "source", streams={"output": "t"})
    with pytest.raises(ValidationError, match="duplicate option"):
        validate(b.build())


def test_empty_parblock_rejected():
    spec = parse_string(
        "<xspcl><procedure name='main'><body>"
        "<parallel shape='task'><parblock/></parallel>"
        "</body></procedure></xspcl>"
    )
    with pytest.raises(ValidationError, match="empty <parblock>"):
        validate(spec)


def test_parallel_n_zero_rejected():
    b = AppBuilder()
    main = b.procedure("main")
    with main.parallel("slice", n=0):
        main.component("x", "source", streams={"output": "s"})
    with pytest.raises(ValidationError, match="positive integer"):
        validate(b.build())


# -- registry-backed checks -------------------------------------------------


def test_unknown_class_rejected(registry):
    b = AppBuilder()
    b.procedure("main").component("x", "warp_drive", streams={})
    with pytest.raises(ValidationError, match="unknown class"):
        validate(b.build(), registry=registry)


def test_unbound_port_rejected(registry):
    b = AppBuilder()
    b.procedure("main").component("x", "filter", streams={"input": "a"})
    with pytest.raises(ValidationError, match="unbound ports.*output"):
        validate(b.build(), registry=registry)


def test_unknown_port_rejected(registry):
    b = AppBuilder()
    b.procedure("main").component(
        "x", "source", streams={"output": "a", "sideband": "b"}
    )
    with pytest.raises(ValidationError, match="unknown ports.*sideband"):
        validate(b.build(), registry=registry)


def test_missing_required_class_param(registry):
    b = AppBuilder()
    b.procedure("main").component(
        "x", "strict", streams={"input": "a", "output": "b"}
    )
    with pytest.raises(ValidationError, match="missing required params.*gain"):
        validate(b.build(), registry=registry)


def test_unknown_class_param(registry):
    b = AppBuilder()
    b.procedure("main").component(
        "x", "strict", streams={"input": "a", "output": "b"},
        params={"gain": 1, "zzz": 2},
    )
    with pytest.raises(ValidationError, match="unknown params.*zzz"):
        validate(b.build(), registry=registry)


@pytest.mark.parametrize("value, shown", [
    (2.5, "2.5"),      # was truncated to 2
    (True, "True"),    # int(True) used to pass as 1
    ("x", "'x'"),
    ("3/2", "'3/2'"),
])
def test_mistyped_class_param(registry, value, shown):
    b = AppBuilder()
    b.procedure("main").component(
        "x", "strict", streams={"input": "a", "output": "b"},
        params={"gain": value},
    )
    with pytest.raises(ValidationError) as info:
        validate(b.build(), registry=registry)
    (diag,) = info.value.diagnostics
    assert diag.code == "X120"
    assert diag.message == (
        f"component 'x': param 'gain' must be an integer, got {shown}")


def test_integral_float_binds_as_int(registry):
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "source", streams={"output": "a"})
    main.component("x", "strict", streams={"input": "a", "output": "b"},
                   params={"gain": 4.0})
    main.component("snk", "sink", streams={"input": "b"})
    gain = expand(b.build(), registry).components["x"].params["gain"]
    assert gain == 4 and type(gain) is int


def test_shipped_class_param_domains_checked_at_lint():
    """A blur ``size`` of 2.5 used to run as 2; ``x`` passed lint and
    died in the run with a bare ValueError."""
    for value in ("2.5", "x", "true", "0", "1e9"):
        xml = BLUR.replace('name="size" value="3"',
                           f'name="size" value="{value}"')
        diags = lint_string(xml, ports=default_ports())
        errors = [d for d in diags if d.severity >= Severity.ERROR]
        assert [d.code for d in errors] == ["X120"], value
        assert "param 'size' must be an integer in 1..16384" in (
            errors[0].message)


def test_no_registry_skips_class_checks():
    b = AppBuilder()
    b.procedure("main").component("x", "warp_drive", streams={"q": "s"})
    validate(b.build())  # registry=None: class-level checks skipped

"""Tests for the component-class registry."""

from __future__ import annotations

import pytest

from repro.components.registry import (
    DEFAULT_REGISTRY,
    default_ports,
    default_registry,
    register,
)
from repro.core.ports import PortSpec
from repro.errors import ComponentError, RegistryError
from repro.hinch.component import Component


def test_default_registry_has_paper_vocabulary():
    expected = {
        "video_source", "luma_source", "mjpeg_source", "timer",
        "jpeg_decode", "idct_field", "downscale_field", "blend_field",
        "blur_h_field", "blur_v_field", "video_sink", "plane_sink",
        "downscale_blend_field", "jpeg_decode_idct",
        "idct_downscale_blend_field",
        # skeleton extension
        "map_plane", "stencil_plane", "reduce_plane", "monitor",
    }
    assert expected <= set(DEFAULT_REGISTRY)


def test_default_registry_returns_a_copy():
    a = default_registry()
    a["zzz"] = Component
    assert "zzz" not in DEFAULT_REGISTRY
    assert "zzz" not in default_registry()


def test_default_registry_with_extras():
    class Custom(Component):
        ports = PortSpec()

        def run(self, job):
            pass

    reg = default_registry({"custom": Custom})
    assert reg["custom"] is Custom
    assert "custom" not in DEFAULT_REGISTRY


def test_default_ports_view_matches_classes():
    ports = default_ports()
    assert set(ports) == set(DEFAULT_REGISTRY)
    for name, spec in ports.items():
        assert spec is DEFAULT_REGISTRY[name].ports


def test_register_into_private_registry():
    class Custom(Component):
        ports = PortSpec()

        def run(self, job):
            pass

    reg: dict = {}
    register("c", Custom, registry=reg)
    assert reg["c"] is Custom
    with pytest.raises(RegistryError, match="already registered"):
        register("c", Custom, registry=reg)
    register("c", Custom, registry=reg, overwrite=True)


def test_register_rejects_non_component():
    with pytest.raises(RegistryError, match="not a Component"):
        register("bad", object, registry={})  # type: ignore[arg-type]


def test_every_registered_class_declares_ports_and_runs():
    for name, cls in DEFAULT_REGISTRY.items():
        assert isinstance(cls.ports, PortSpec), name
        assert cls.run is not Component.run, f"{name} must implement run()"


def test_every_class_that_asks_for_a_buffer_declares_it():
    """The build checks a ``job.buffer`` port's plan (lint X507) where
    the class names the port in ``PortSpec.buffers``: every shipped
    class that asks for a buffer does."""
    import inspect
    import re

    for name, cls in DEFAULT_REGISTRY.items():
        source = "".join(inspect.getsource(k) for k in cls.__mro__
                         if issubclass(k, Component) and k is not Component)
        asked = set(re.findall(r'\.buffer\("(\w+)"\)', source))
        assert asked == set(cls.ports.buffers), name


def test_buffers_name_outputs():
    with pytest.raises(ComponentError, match="unknown output 'input'"):
        PortSpec(inputs=("input",), outputs=("output",), buffers=("input",))


def test_every_registered_class_has_a_cost_profile():
    """All shipped components participate in the SpaceCAKE cost model."""
    from inspect import getattr_static

    default = vars(Component)["cost_profile"]
    for name, cls in DEFAULT_REGISTRY.items():
        assert getattr_static(cls, "cost_profile") is not default, (
            f"{name} lacks a cost profile"
        )


def _bound_instance(name, cls, slice=None):
    """An instance of ``cls`` whose required params hold sample values."""
    from repro.core.program import ComponentInstance

    samples = {"int": 8, "str": "x", "bool": False}
    raw = {}
    for pname, param in cls.ports.params.items():
        if not param.required:
            continue
        if param.kind == "float":
            raw[pname] = param.lo if param.lo is not None else 0.5
        elif param.kind == "enum":
            raw[pname] = next(iter(param.choices))
        else:
            raw[pname] = samples[param.kind]
    return ComponentInstance(
        instance_id=name, definition_id=name, class_name=name,
        params=cls.ports.bind(name, raw), streams={}, slice=slice,
    )


def test_cost_profiles_charge_no_plane_port():
    """A plane port's bytes are its stream's solved format, charged by
    ``CostModel.port_traffic``: no profile restates them."""
    from repro.core.formats import parse_format

    for name, cls in DEFAULT_REGISTRY.items():
        formats = cls.ports.formats
        planes = {port for port, text in formats.items()
                  if parse_format(text).kind == "plane"}
        for slice in (None, (1, 2)):
            cost = cls.cost_profile(_bound_instance(name, cls, slice))
            listed = {t.port for t in cost.traffic} if cost else set()
            assert not listed & planes, (name, sorted(listed & planes))


def test_only_the_classes_that_read_past_their_rows_declare_a_halo():
    declared = {name for name, cls in DEFAULT_REGISTRY.items()
                if cls.halo_rows is not None}
    # blur_h_field convolves along its own rows only
    assert declared == {"blur_v_field", "stencil_plane"}


def test_impl_registration_validates_format_signature():
    """Replacing a class keeps the old class's declared port formats."""
    base = DEFAULT_REGISTRY["downscale_field"]

    class BadFormats(base):  # type: ignore[misc, valid-type]
        ports = PortSpec(
            inputs=base.ports.inputs,
            outputs=base.ports.outputs,
            params=base.ports.params,
            formats={
                **base.ports.formats,
                "output": "kind=plane shape=height,width dtype=float64",
            },
        )

    reg = dict(DEFAULT_REGISTRY)
    with pytest.raises(RegistryError, match="port 'output'"):
        register("downscale_field", BadFormats, registry=reg, overwrite=True)
    assert reg["downscale_field"] is base

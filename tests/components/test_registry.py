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
from repro.errors import RegistryError
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


def test_every_registered_class_has_a_cost_profile():
    """All shipped components participate in the SpaceCAKE cost model."""
    from repro.hinch.component import Component as Base

    for name, cls in DEFAULT_REGISTRY.items():
        assert cls.cost_profile.__func__ is not Base.cost_profile.__func__, (
            f"{name} lacks a cost profile"
        )


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

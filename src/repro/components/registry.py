"""The default component-class registry.

The XSPCL ``class`` attribute names a component class; the registry maps
each name to exactly one implementation.  Two views exist:

* :func:`default_registry` — name -> Component subclass, consumed by the
  runtimes and by the SpaceCAKE cost model;
* :func:`default_ports`   — name -> :class:`PortSpec`, consumed by the
  validator/expander (which must not depend on implementations).

:func:`register` lets applications and tests add their own classes — to
a private registry or to the shared default.  A class that replaces an
existing name must keep its declared *format signature* (see
:mod:`repro.core.formats`), so the swap can never change what the
format-reconciliation lint (X5xx) or the runtimes' buffer expectations
see.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.formats import parse_format
from repro.core.ports import PortSpec
from repro.errors import RegistryError
from repro.hinch.component import Component
from repro.components import audio, streaming
from repro.components.skeletons import SKELETON_REGISTRY

__all__ = [
    "DEFAULT_REGISTRY",
    "default_registry",
    "default_ports",
    "register",
]


def check_formats(
    name: str, previous: type[Component], cls: type[Component]
) -> None:
    """Check ``cls`` declares the same port formats as ``previous``.

    Where both sides declare a port format, the declarations must be
    semantically equal (:func:`repro.core.formats.parse_format` equality,
    so whitespace/key order do not matter).  Raises
    :class:`RegistryError` naming the diverging port.
    """
    old, new = previous.ports.formats, cls.ports.formats
    for port in sorted(set(old) & set(new)):
        if parse_format(old[port]) != parse_format(new[port]):
            raise RegistryError(
                f"component class {name!r} diverges from the declared "
                f"format signature on port {port!r}: {new[port]!r} != "
                f"{old[port]!r}"
            )


DEFAULT_REGISTRY: dict[str, type[Component]] = {
    "video_source": streaming.VideoSource,
    "luma_source": streaming.LumaSource,
    "mjpeg_source": streaming.MjpegSource,
    "timer": streaming.TimerSource,
    "jpeg_decode": streaming.JpegDecode,
    "idct_field": streaming.IdctField,
    "downscale_field": streaming.DownscaleField,
    "blend_field": streaming.BlendField,
    "blur_h_field": streaming.BlurHField,
    "blur_v_field": streaming.BlurVField,
    "video_sink": streaming.VideoSink,
    "plane_sink": streaming.PlaneSink,
    "convert_plane": streaming.ConvertPlane,
    "downscale_blend_field": streaming.DownscaleBlendField,
    "jpeg_decode_idct": streaming.JpegDecodeIdct,
    "idct_downscale_blend_field": streaming.IdctDownscaleBlendField,
    # audio / sensor-fusion front-end (small records, high rate)
    "audio_source": audio.AudioSource,
    "band_filter": audio.BandFilter,
    "fuse_sensors": audio.FuseSensors,
    "feature_sink": audio.FeatureSink,
    # skeletal template components (paper §6, future work)
    **SKELETON_REGISTRY,
}


def default_registry(
    extra: Mapping[str, type[Component]] | None = None,
) -> dict[str, type[Component]]:
    """A fresh copy of the default registry, optionally extended."""
    registry = dict(DEFAULT_REGISTRY)
    if extra:
        registry.update(extra)
    return registry


def default_ports(
    registry: Mapping[str, type[Component]] | None = None,
) -> dict[str, PortSpec]:
    """PortSpec view of a registry (for validate()/expand())."""
    reg = registry if registry is not None else DEFAULT_REGISTRY
    return {name: cls.ports for name, cls in reg.items()}


def register(
    name: str,
    cls: type[Component],
    *,
    registry: dict[str, type[Component]] | None = None,
    overwrite: bool = False,
) -> type[Component]:
    """Add a component class to ``registry`` (default: the shared one).

    An existing name needs ``overwrite``, to catch accidental clobbering.
    When a name is overwritten, the new class must agree with the
    previous one on every port format both declare (diverging formats
    raise :class:`RegistryError` naming the port).
    """
    if not (isinstance(cls, type) and issubclass(cls, Component)):
        raise RegistryError(f"{cls!r} is not a Component subclass")
    target = registry if registry is not None else DEFAULT_REGISTRY
    if name in target:
        if not overwrite:
            raise RegistryError(f"component class {name!r} already registered")
        check_formats(name, target[name], cls)
    target[name] = cls
    return cls

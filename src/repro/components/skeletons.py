"""Skeletal parallelism: template components (paper §6, future work).

"Another research direction is skeletal parallelism.  The various shapes
of parallelism we have shown already implement a skeletal template.
This can be extended to the components themselves: Template components
can be developed for certain classes of algorithms.  Using the
initialization parameters, different instances can be instantiated."

This module implements that extension:

* a **kernel registry** of named pure functions over image planes —
  applications select one with the ``kernel`` initialization parameter,
  so one component class covers a whole algorithm family;
* :class:`MapPlane` — the *map* skeleton: applies a row-local kernel to
  its slice of the plane (composes with ``shape="slice"``);
* :class:`StencilPlane` — the *stencil* skeleton: like map but the
  kernel sees a halo of neighbouring rows (composes with
  ``shape="crossdep"`` exactly like the blur phases);
* :class:`ReducePlane` — the *reduce* skeleton: folds a plane to a
  scalar per frame (mean/max/min/sum);
* :class:`Monitor` — reduce + event: posts an event when the scalar
  crosses a threshold, implementing §2.3b's "in non-interactive
  applications, events can be used to respond to special input values".
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

import numpy as np

from repro.components.filters import saturate
from repro.components.streaming import DIM, GEOMETRY, NAME
from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.errors import ComponentError, RegistryError
from repro.hinch.component import Component, JobContext
from repro.spacecake.costmodel import JobCost

__all__ = [
    "register_kernel",
    "kernel",
    "MapPlane",
    "StencilPlane",
    "ReducePlane",
    "Monitor",
    "SKELETON_REGISTRY",
]

#: name -> (fn, cycles_per_pixel); map kernels take (block, **params) and
#: return an array of the same shape; stencil kernels additionally take
#: the halo rows above/below their block.
_KERNELS: dict[str, tuple[Callable, float]] = {}


def register_kernel(name: str, *, cycles_per_pixel: float = 2.0):
    """Decorator registering a plane kernel for skeleton components."""

    def deco(fn: Callable) -> Callable:
        if name in _KERNELS:
            raise RegistryError(f"kernel {name!r} already registered")
        _KERNELS[name] = (fn, cycles_per_pixel)
        return fn

    return deco


def kernel(name: str) -> tuple[Callable, float]:
    try:
        return _KERNELS[name]
    except KeyError:
        raise ComponentError(
            f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}"
        ) from None


# -- built-in kernels ----------------------------------------------------------


@register_kernel("identity", cycles_per_pixel=0.5)
def _identity(block: np.ndarray) -> np.ndarray:
    return block


@register_kernel("invert", cycles_per_pixel=1.0)
def _invert(block: np.ndarray) -> np.ndarray:
    return 255 - block


@register_kernel("gain", cycles_per_pixel=2.0)
def _gain(block: np.ndarray, *, factor: float = 1.0, bias: float = 0.0) -> np.ndarray:
    out = block.astype(np.float32) * float(factor) + float(bias)
    return saturate(out, 0, 255).astype(block.dtype)


@register_kernel("binarize", cycles_per_pixel=1.5)
def _binarize(block: np.ndarray, *, threshold: float = 128.0) -> np.ndarray:
    return np.where(block >= threshold, 255, 0).astype(block.dtype)


@register_kernel("edge", cycles_per_pixel=6.0)
def _edge(block: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Vertical-gradient magnitude stencil (1 halo row each side)."""
    padded = np.vstack([top, block, bottom]).astype(np.int32)
    grad = np.abs(padded[2:] - padded[:-2]) // 2
    return saturate(grad, 0, 255).astype(block.dtype)


# -- skeleton components ----------------------------------------------------------


#: the skeleton's own params; the rest of an open schema goes to the kernel
_RESERVED = frozenset({"kernel", "width", "height", "halo"})
_SKELETON_PARAMS = {
    **GEOMETRY, "kernel": Param("enum", required=True, choices=_KERNELS),
}


class _KernelSkeleton(Component):
    """Derives the kernel, its parameters, the halo and the rows once."""

    def configure(self) -> None:
        params = self.params
        self._fn = kernel(params["kernel"])[0]
        self._kwargs = {
            k: v for k, v in params.items() if k not in _RESERVED
        }
        self.halo = params.get("halo")  # stencils only
        self.span = self.rows(params["height"])


class MapPlane(_KernelSkeleton):
    """Map skeleton: element-wise/row-local kernel over a plane slice."""

    row_contract = True

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        buffers=("output",),
        params=_SKELETON_PARAMS,
        open_params=True,  # kernel-specific parameters pass through
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        _, cpp = kernel(params["kernel"])
        frac = 1.0 / instance.slice[1] if instance.slice else 1.0
        return JobCost(
            compute_cycles=cpp * (params["width"] * params["height"] * frac))

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        out = job.buffer("output")
        lo, hi = self.span
        out[lo:hi] = self._fn(src[lo:hi], **self._kwargs)


class StencilPlane(_KernelSkeleton):
    """Stencil skeleton: kernel sees ``halo`` rows above/below its slice.

    Use inside ``shape="crossdep"`` parblocks so the i-1/i/i+1
    dependencies cover the halo, exactly like the blur's vertical phase.
    The border rows are replicated only at the plane's edges, so one
    full-span copy computes what *n* halo'd copies do.
    """

    row_contract = True
    halo_rows = staticmethod(itemgetter("halo"))

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        buffers=("output",),
        params={**_SKELETON_PARAMS,
                "halo": Param("int", lo=0, hi=DIM.hi, default=1)},
        open_params=True,
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        _, cpp = kernel(params["kernel"])
        frac = 1.0 / instance.slice[1] if instance.slice else 1.0
        return JobCost(
            compute_cycles=cpp * (params["width"] * params["height"] * frac))

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        halo = self.halo
        out = job.buffer("output")
        h = src.shape[0]
        lo, hi = self.span
        top = src[max(lo - halo, 0):lo]
        bottom = src[hi:min(hi + halo, h)]
        # replicate edges at the image border so every block sees a full halo
        if top.shape[0] < halo:
            top = np.vstack([src[0:1]] * (halo - top.shape[0]) + [top]) \
                if top.size else np.repeat(src[0:1], halo, axis=0)
        if bottom.shape[0] < halo:
            pad = halo - bottom.shape[0]
            bottom = np.vstack([bottom] + [src[h - 1:h]] * pad) \
                if bottom.size else np.repeat(src[h - 1:h], halo, axis=0)
        out[lo:hi] = self._fn(src[lo:hi], top, bottom, **self._kwargs)


_REDUCE_OPS = {
    "mean": lambda p: float(np.mean(p)),
    "max": lambda p: float(np.max(p)),
    "min": lambda p: float(np.min(p)),
    "sum": lambda p: float(np.sum(p)),
}
_OP = Param("enum", required=True, choices=_REDUCE_OPS)


class ReducePlane(Component):
    """Reduce skeleton: plane -> scalar per frame."""

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={**GEOMETRY, "op": _OP},
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=scalar",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        pixels = instance.params["width"] * instance.params["height"]
        return JobCost(compute_cycles=1.0 * pixels)

    def configure(self) -> None:
        self._op = _REDUCE_OPS[self.params["op"]]

    def run(self, job: JobContext) -> None:
        job.write("output", self._op(job.read("input")))


class Monitor(Component):
    """Reduce + event: reacts to special input values (paper §2.3b).

    Passes its input through unchanged; when the reduced metric crosses
    ``threshold`` (in the configured ``direction``), posts ``event`` to
    ``queue`` — e.g. a scene-change detector enabling a denoise option.
    Only *crossings* post, not every frame beyond the threshold.
    """

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={**GEOMETRY, "op": _OP, "queue": NAME, "event": NAME,
                "threshold": Param("float", required=True),
                "direction": Param("enum", choices=("above", "below"),
                                   default="above")},
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        pixels = instance.params["width"] * instance.params["height"]
        return JobCost(compute_cycles=1.2 * pixels)

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        self._above: bool | None = None

    def configure(self) -> None:
        params = self.params
        self._op = _REDUCE_OPS[params["op"]]
        self.threshold = params["threshold"]
        self.rising = params["direction"] == "above"
        self.queue, self.event = params["queue"], params["event"]

    def run(self, job: JobContext) -> None:
        plane = job.read("input")
        job.write("output", plane)
        value = self._op(plane)
        above = value >= self.threshold
        crossed = (
            self._above is not None
            and above != self._above
            and above == self.rising
        )
        self._above = above
        if crossed:
            job.post_event(self.queue, self.event, payload=value)


SKELETON_REGISTRY: dict[str, type[Component]] = {
    "map_plane": MapPlane,
    "stencil_plane": StencilPlane,
    "reduce_plane": ReducePlane,
    "monitor": Monitor,
}

"""Hinch components for the paper's applications (Fig. 7 vocabulary).

Each component couples three things:

* a ``ports`` declaration consumed by the XSPCL validator;
* a ``run`` implementation on real data (numpy planes / mini-JPEG
  bitstreams) used by the threaded runtime and ``execute=True``
  simulations;
* a ``cost_profile`` used by the SpaceCAKE simulator — cycles derived
  from the work the component performs (per-pixel kernels, per-byte
  entropy decoding) and per-port byte traffic in *model bytes* (e.g.
  coefficients count 2 B/sample as an int16 implementation would,
  regardless of the float64 numpy arrays Python actually holds).

Data-parallel components process the horizontal slice their
``(index, n)`` assignment selects; all copies share the whole-frame
stream buffers (DESIGN.md §6).  Fused variants (``downscale_blend``,
``idct_downscale_blend``) implement the hand-written sequential baselines
of paper §4.1 — same math, no intermediate stream.

Cost constants are class attributes (``CYCLES_PER_PIXEL`` etc.) so the
ablation benchmarks can subclass/patch them.
"""

from __future__ import annotations

import numpy as np

from repro.components import filters
from repro.components.jpeg import codec as jpeg_codec
from repro.components.video import Frame, synthetic_frame
from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.errors import ComponentError
from repro.hinch.component import Component, JobContext
from repro.spacecake.costmodel import JobCost, PortTraffic

__all__ = [
    "VideoSource",
    "LumaSource",
    "MjpegSource",
    "JpegDecode",
    "IdctField",
    "DownscaleField",
    "BlendField",
    "BlurHField",
    "BlurVField",
    "ConvertPlane",
    "VideoSink",
    "PlaneSink",
    "TimerSource",
    "DownscaleBlendField",
    "IdctDownscaleBlendField",
    "field_dims",
]

#: model bytes per DCT coefficient sample (int16 in a real decoder)
COEFF_BYTES = 2


def field_dims(width: int, height: int, field: str) -> tuple[int, int]:
    """Plane dimensions of one YUV 4:2:0 field of a width x height frame."""
    if field == "y":
        return width, height
    if field in ("u", "v"):
        return width // 2, height // 2
    raise ComponentError(f"unknown field {field!r}")


#: a plane or record dimension, scale factor or kernel size: bounded, so
#: that no typo allocates a terabyte plane
DIM = Param("int", required=True, lo=1, hi=1 << 14)
#: an optional dimension a port format names: no default, so an absent
#: one stays a format-solver variable
OPT_DIM = Param("int", lo=1, hi=1 << 14)
GEOMETRY = {"width": DIM, "height": DIM}
SEED = Param("int", lo=0, default=0)
FRAMES = Param("int", lo=1)  # absent: the clip never loops
COLLECT = Param("bool", default=False)
NAME = Param("str", required=True)  # an event queue or event name
_SYNTHESIS = {**GEOMETRY, "seed": SEED, "frames": FRAMES,
              "detail": Param("float", lo=0.0, default=0.5),
              "motion": Param("int", default=4)}
#: assumed compression ratio (compressed/raw) for the cost profile
_RATIO = Param("float", lo=0.0, default=0.12)
#: overlay placement: ``pos`` (a reconfiguration request's ``row,col``)
#: wins over ``pos_row``/``pos_col``
_PLACEMENT = {"pos_row": Param("int", lo=0, default=0),
              "pos_col": Param("int", lo=0, default=0), "pos": Param("pos"),
              "alpha": Param("float", lo=0.0, hi=1.0, default=1.0)}
#: what ``convert_plane`` casts to
_DTYPES = ("bool", "int8", "uint8", "int16", "uint16", "int32", "uint32",
           "int64", "uint64", "float16", "float32", "float64")


def _slice_fraction(instance: ComponentInstance) -> float:
    if instance.slice is None:
        return 1.0
    return 1.0 / instance.slice[1]


class _SlicedMixin:
    """Helper for components operating on a horizontal slice of rows.

    ``configure`` stores :meth:`rows` of the plane it writes as ``span``;
    ``run`` reads that instead of re-deriving it per job.
    """

    slice: tuple[int, int] | None
    span: tuple[int, int]

    def rows(self, height: int, *, block: int = 1) -> tuple[int, int]:
        """This copy's row range over ``height`` rows, ``block``-aligned."""
        if self.slice is None:
            return 0, height
        index, total = self.slice
        if height % block:
            raise ComponentError(
                f"height {height} not divisible by block {block}"
            )
        units = height // block
        lo, hi = filters.slice_rows(units, index, total)
        return lo * block, hi * block


def _instance_rows(
    instance: ComponentInstance, height: int, *, block: int = 1
) -> tuple[int, int] | None:
    """Build-time twin of :meth:`_SlicedMixin.rows` over a descriptor.

    Used by the ``writes_rows``/``reads_rows`` access contracts, which the
    chain-fusion compiler evaluates before any component object exists.
    Returns ``None`` instead of raising when the height does not divide.
    """
    if instance.slice is None:
        return 0, height
    if height % block:
        return None
    index, total = instance.slice
    units = height // block
    lo, hi = filters.slice_rows(units, index, total)
    return lo * block, hi * block


def _placement(component: Component) -> tuple[tuple[int, int], float]:
    """Overlay ``(position, alpha)``; a ``pos=row,col`` request wins."""
    params = component.params
    pos = params.get("pos")
    if pos is None:
        pos = params["pos_row"], params["pos_col"]
    return pos, params["alpha"]


def _synthesis(component: Component) -> tuple[int | None, dict]:
    """A synthetic source's clip length (None: no loop) and frame style."""
    params = component.params
    return params.get("frames"), {
        k: params[k] for k in ("width", "height", "seed", "detail", "motion")
    }


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


class VideoSource(Component):
    """Reads an 'uncompressed video file': synthesizes deterministic frames.

    Outputs the three fields on separate ports so downstream per-field
    components form the task-parallel color pipelines of paper Fig. 7.
    """

    ports = PortSpec(
        outputs=("y", "u", "v"),
        params=_SYNTHESIS,
        formats={
            "y": "kind=plane shape=height,width dtype=uint8 colorspace=y",
            "u": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=u",
            "v": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=v",
        },
    )
    READ_CYCLES_PER_BYTE = 0.4  # DMA-in from the file/capture device

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        nbytes = w * h + 2 * (w // 2) * (h // 2)
        return JobCost(
            compute_cycles=cls.READ_CYCLES_PER_BYTE * nbytes,
            traffic=(
                PortTraffic("y", w * h, True),
                PortTraffic("u", (w // 2) * (h // 2), True),
                PortTraffic("v", (w // 2) * (h // 2), True),
            ),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        #: frames by clip index, kept only when the clip loops (``frames``
        #: set): without a loop no index comes back
        self._cache: dict[int, Frame] = {}

    def configure(self) -> None:
        self.loop, self.style = _synthesis(self)

    def _frame(self, index: int) -> Frame:
        if self.loop is None:
            return synthetic_frame(index, **self.style)
        index %= self.loop  # loop the clip, like a looping test file
        frame = self._cache.get(index)
        if frame is None:
            frame = self._cache[index] = synthetic_frame(index, **self.style)
        return frame

    def run(self, job: JobContext) -> None:
        frame = self._frame(job.iteration)
        job.write("y", frame.y)
        job.write("u", frame.u)
        job.write("v", frame.v)


class LumaSource(VideoSource):
    """Single-plane source: the Blur application's luminance input."""

    ports = PortSpec(
        outputs=("output",),
        params=_SYNTHESIS,
        formats={
            "output": "kind=plane shape=height,width dtype=uint8 colorspace=y",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        return JobCost(
            compute_cycles=cls.READ_CYCLES_PER_BYTE * w * h,
            traffic=(PortTraffic("output", w * h, True),),
        )

    def run(self, job: JobContext) -> None:
        job.write("output", self._frame(job.iteration).y)


class MjpegSource(Component):
    """Reads an 'MJPEG file': synthesizes and encodes frames on demand."""

    ports = PortSpec(
        outputs=("output",),
        params={**_SYNTHESIS, "ratio": _RATIO,
                "quality": Param("int", lo=1, hi=100, default=75)},
        formats={"output": "kind=bitstream"},
    )
    READ_CYCLES_PER_BYTE = 0.4

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        raw = w * h + 2 * (w // 2) * (h // 2)
        ratio = instance.params["ratio"]
        compressed = int(raw * ratio)
        return JobCost(
            compute_cycles=cls.READ_CYCLES_PER_BYTE * compressed,
            traffic=(PortTraffic("output", compressed, True),),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        #: encoded frames by clip index, kept only when the clip loops
        #: (``frames`` set): without a loop no index comes back
        self._cache: dict[int, jpeg_codec.EncodedFrame] = {}
        #: per-index (field, zz, qtable, w, h) tuples for the fused
        #: source+decode kernel, kept like ``_cache``; int32 zigzag
        #: coefficients, not decoded planes, so memory stays near the
        #: compressed-frame cache
        self._zz_cache: dict[int, tuple] = {}

    def configure(self) -> None:
        self.loop, self.style = _synthesis(self)
        self.qtables = jpeg_codec.frame_qtables(self.params["quality"])

    def frame_index(self, iteration: int) -> int:
        """Source frame index for one iteration (``frames`` wraps)."""
        if self.loop is not None:
            return iteration % self.loop
        return iteration

    def _encode(self, index: int) -> jpeg_codec.EncodedFrame:
        return jpeg_codec.encode_frame(synthetic_frame(index, **self.style),
                                       qtables=self.qtables)

    def run(self, job: JobContext) -> None:
        if self.loop is None:
            job.write("output", self._encode(job.iteration))
            return
        index = job.iteration % self.loop
        encoded = self._cache.get(index)
        if encoded is None:
            encoded = self._cache[index] = self._encode(index)
        job.write("output", encoded)

    def transcoded_coefficients(
        self, iteration: int
    ) -> dict[str, jpeg_codec.PlaneCoefficients]:
        """Decoded coefficients without the Huffman round-trip.

        Bit-identical to ``entropy_decode_frame(encode_frame(frame))``
        (see :func:`~repro.components.jpeg.codec.coefficients_from_zigzag`);
        only the int32 zigzag stage is cached, and each call materializes
        fresh dequantized blocks — exactly the allocation behaviour of
        the real decoder, so downstream consumers see equivalent objects.
        """
        index = self.frame_index(iteration)
        entry = self._zz_cache.get(index)
        if entry is None:
            frame = synthetic_frame(index, **self.style)
            luma_q, chroma_q = self.qtables
            entry = tuple(
                (field, jpeg_codec.quantize_plane(plane, qtable),
                 qtable, plane.shape[1], plane.shape[0])
                for field, plane, qtable in (
                    ("y", frame.y, luma_q),
                    ("u", frame.u, chroma_q),
                    ("v", frame.v, chroma_q),
                )
            )
            if self.loop is not None:
                self._zz_cache[index] = entry
        return {
            field: jpeg_codec.coefficients_from_zigzag(
                zz, qtable, width=w, height=h
            )
            for field, zz, qtable, w, h in entry
        }


class TimerSource(Component):
    """Portless control component posting an event every ``period`` iters.

    Stands in for the user pressing a key; ``always_execute`` makes it
    drive reconfiguration experiments in cost-only simulations too.
    """

    ports = PortSpec(params={
        "queue": NAME, "event": NAME,
        "period": Param("int", required=True, lo=1),
        "offset": Param("int", default=0),  # the apps phase-shift: < 0
    })
    always_execute = True

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        return JobCost(compute_cycles=100.0)

    def configure(self) -> None:
        params = self.params
        self.period, self.offset = params["period"], params["offset"]
        self.queue, self.event = params["queue"], params["event"]

    def run(self, job: JobContext) -> None:
        k = job.iteration - self.offset
        if k >= 0 and (k + 1) % self.period == 0:
            job.post_event(self.queue, self.event)


# ---------------------------------------------------------------------------
# JPEG pipeline stages
# ---------------------------------------------------------------------------


class JpegDecode(Component):
    """Entropy decode: bitstream -> dequantized coefficients per field.

    Inherently serial (bit-level Huffman), hence never sliced — the paper
    parallelizes only the IDCT and later stages.
    """

    ports = PortSpec(
        inputs=("input",),
        outputs=("coeffs_y", "coeffs_u", "coeffs_v"),
        params={**GEOMETRY, "ratio": _RATIO},
        formats={
            "input": "kind=bitstream",
            "coeffs_y": "kind=coeffs shape=height,width colorspace=y",
            "coeffs_u": "kind=coeffs shape=height/2,width/2 colorspace=u",
            "coeffs_v": "kind=coeffs shape=height/2,width/2 colorspace=v",
        },
    )
    CYCLES_PER_COMPRESSED_BYTE = 55.0  # serial Huffman + RLE + dequant

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        raw = w * h + 2 * (w // 2) * (h // 2)
        ratio = instance.params["ratio"]
        compressed = int(raw * ratio)
        return JobCost(
            compute_cycles=cls.CYCLES_PER_COMPRESSED_BYTE * compressed,
            traffic=(
                PortTraffic("input", compressed, False),
                PortTraffic("coeffs_y", w * h * COEFF_BYTES, True),
                PortTraffic("coeffs_u", (w // 2) * (h // 2) * COEFF_BYTES, True),
                PortTraffic("coeffs_v", (w // 2) * (h // 2) * COEFF_BYTES, True),
            ),
        )

    def run(self, job: JobContext) -> None:
        encoded: jpeg_codec.EncodedFrame = job.read("input")
        coeffs = jpeg_codec.entropy_decode_frame(encoded)
        job.write("coeffs_y", coeffs["y"])
        job.write("coeffs_u", coeffs["u"])
        job.write("coeffs_v", coeffs["v"])

    @classmethod
    def compile_fused_pair(
        cls,
        upstream_cls: type[Component],
        upstream: ComponentInstance,
        instance: ComponentInstance,
    ):
        """Fused source+decode: skip the Huffman round-trip entirely.

        When the upstream pair member is the MJPEG source, the
        bitstream between them is never written and provably a lossless
        detour — canonical Huffman, RLE and DC prediction invert exactly
        on the int32 zigzag coefficients — so the combined kernel goes
        pixels -> DCT -> quantize -> dequantize directly
        (:meth:`MjpegSource.transcoded_coefficients`), bit-identical to
        encode-then-entropy-decode at a fraction of the work.
        """
        if not issubclass(upstream_cls, MjpegSource):
            return None

        def kernel(source, decode, src_job, job):
            coeffs = source.transcoded_coefficients(src_job.iteration)
            job.write("coeffs_y", coeffs["y"])
            job.write("coeffs_u", coeffs["u"])
            job.write("coeffs_v", coeffs["v"])

        return kernel


class IdctField(Component, _SlicedMixin):
    """IDCT of one field; data-parallel over block-aligned row slices."""

    ports = PortSpec(
        inputs=("coeffs",),
        outputs=("output",),
        params=GEOMETRY,
        formats={
            "coeffs": "kind=coeffs shape=height,width colorspace=?c",
            "output": "kind=plane shape=height,width dtype=uint8 "
                      "colorspace=?c block=8",
        },
    )
    CYCLES_PER_PIXEL = 10.0  # 8x8 IDCT amortized per pixel

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        frac = _slice_fraction(instance)
        pixels = w * h * frac
        return JobCost(
            compute_cycles=cls.CYCLES_PER_PIXEL * pixels,
            traffic=(
                PortTraffic("coeffs", int(pixels * COEFF_BYTES), False),
                PortTraffic("output", int(pixels), True),
            ),
        )

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height, block=8)
        return super().writes_rows(instance, port, height)

    def configure(self) -> None:
        self.span = self.rows(self.params["height"], block=8)

    def run(self, job: JobContext) -> None:
        coeffs: jpeg_codec.PlaneCoefficients = job.read("coeffs")
        out = job.buffer(
            "output", shape=(coeffs.height, coeffs.width), dtype=np.uint8
        )
        jpeg_codec.idct_plane(coeffs, rows=self.span, out=out)


# ---------------------------------------------------------------------------
# Pixel filters
# ---------------------------------------------------------------------------


class DownscaleField(Component, _SlicedMixin):
    """Spatial down scaler of one plane (paper Fig. 2's example)."""

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={**GEOMETRY, "factor": DIM},
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=plane shape=height/factor,width/factor "
                      "dtype=?T colorspace=?c",
        },
    )
    CYCLES_PER_INPUT_PIXEL = 3.0  # box accumulate + divide

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        w, h, factor = params["width"], params["height"], params["factor"]
        frac = _slice_fraction(instance)
        in_px = w * h * frac
        out_px = in_px / (factor * factor)
        return JobCost(
            compute_cycles=cls.CYCLES_PER_INPUT_PIXEL * in_px,
            traffic=(
                PortTraffic("input", int(in_px), False),
                PortTraffic("output", int(out_px), True),
            ),
        )

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height)
        return super().writes_rows(instance, port, height)

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "input":
            # The box filter reads exactly the input band that maps onto
            # this copy's output rows: [lo*factor, hi*factor).
            factor = instance.params["factor"]
            span = _instance_rows(instance, height // factor)
            if span is None:
                return None
            return span[0] * factor, span[1] * factor
        return super().reads_rows(instance, port, height)

    def configure(self) -> None:
        self.factor = factor = self.params["factor"]
        self.span = self.rows(self.params["height"] // factor)

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        factor = self.factor
        h, w = src.shape
        out = job.buffer("output", shape=(h // factor, w // factor),
                         dtype=src.dtype)
        filters.downscale_plane(src, factor, out=out, rows=self.span)


class BlendField(Component, _SlicedMixin):
    """Picture-in-picture blender for one plane.

    Supports the paper's example reconfiguration: "a picture-in-picture
    blender can support changing the position of the blended picture"
    (request ``pos=row,col``).
    """

    ports = PortSpec(
        inputs=("background", "overlay"),
        outputs=("output",),
        params={**GEOMETRY, **_PLACEMENT, "overlay_width": OPT_DIM,
                "overlay_height": OPT_DIM},
        formats={
            "background": "kind=plane shape=height,width dtype=?T "
                          "colorspace=?c",
            "overlay": "kind=plane shape=overlay_height,overlay_width "
                       "dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )
    CYCLES_PER_PIXEL = 1.5  # copy + conditional overlay write

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        w, h = params["width"], params["height"]  # background/output
        frac = _slice_fraction(instance)
        bg_px = w * h * frac
        ow = params.get("overlay_width", w // 4)
        oh = params.get("overlay_height", h // 4)
        ov_px = ow * oh * frac
        return JobCost(
            compute_cycles=cls.CYCLES_PER_PIXEL * bg_px,
            traffic=(
                PortTraffic("background", int(bg_px), False),
                PortTraffic("overlay", int(ov_px), False),
                PortTraffic("output", int(bg_px), True),
            ),
        )

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height)
        return super().writes_rows(instance, port, height)

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "background":
            # blend_plane copies background[lo:hi] and overlays only the
            # intersection with that band — the slice reads nothing else.
            return _instance_rows(instance, height)
        # The overlay lands at a reconfigurable position: a sliced copy may
        # read any of its rows, so no contract (fusion keeps it external).
        return super().reads_rows(instance, port, height)

    def configure(self) -> None:
        self.position, self.alpha = _placement(self)
        self.span = self.rows(self.params["height"])

    def run(self, job: JobContext) -> None:
        background: np.ndarray = job.read("background")
        overlay: np.ndarray = job.read("overlay")
        out = job.buffer("output", shape=background.shape, dtype=background.dtype)
        filters.blend_plane(background, overlay, self.position, out=out,
                            rows=self.span, alpha=self.alpha)


class ConvertPlane(Component, _SlicedMixin):
    """Dtype bridge between mismatched plane formats (X504's named fix).

    Casts its input plane to the ``dtype`` parameter, optionally
    pre-multiplying by ``scale`` — the converter the reconciliation pass
    suggests for lossy-but-convertible dtype mismatches.  Preserves the
    plane geometry and colorspace.
    """

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={"dtype": Param("enum", required=True, choices=_DTYPES),
                "scale": Param("float"), "width": OPT_DIM,
                "height": OPT_DIM},
        formats={
            "input": "kind=plane shape=?h,?w colorspace=?c",
            "output": "kind=plane shape=?h,?w dtype=dtype colorspace=?c",
        },
    )
    CYCLES_PER_PIXEL = 1.0  # cast + optional multiply

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w = instance.params.get("width", 0)
        h = instance.params.get("height", 0)
        pixels = w * h * _slice_fraction(instance)
        return JobCost(
            compute_cycles=cls.CYCLES_PER_PIXEL * pixels,
            traffic=(
                PortTraffic("input", int(pixels), False),
                PortTraffic("output", int(pixels), True),
            ),
        )

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height)
        return super().writes_rows(instance, port, height)

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "input":
            return _instance_rows(instance, height)
        return super().reads_rows(instance, port, height)

    def configure(self) -> None:
        self.dtype = np.dtype(self.params["dtype"])
        self.scale = self.params.get("scale")
        height = self.params.get("height")
        #: None when the copy knows no height (an auto-inserted
        #: converter): ``run`` then spans the plane it reads
        self.span = None if height is None else self.rows(height)

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        out = job.buffer("output", shape=src.shape, dtype=self.dtype)
        lo, hi = self.span or self.rows(src.shape[0])
        view = src[lo:hi]
        if self.scale is not None:
            view = view * self.scale
        np.copyto(out[lo:hi], view, casting="unsafe")


class _BlurBase(Component, _SlicedMixin):
    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={**GEOMETRY, "size": DIM,
                "sigma": Param("float", lo=0.0, default=1.0)},
        formats={
            "input": "kind=plane shape=height,width dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )
    CYCLES_PER_TAP_PIXEL = 2.0  # multiply-accumulate per kernel tap

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        w, h, size = params["width"], params["height"], params["size"]
        frac = _slice_fraction(instance)
        pixels = w * h * frac
        halo_rows = size // 2
        halo_bytes = 2 * halo_rows * w if instance.slice else 0
        return JobCost(
            compute_cycles=cls.CYCLES_PER_TAP_PIXEL * size * pixels,
            traffic=(
                PortTraffic("input", int(pixels + halo_bytes), False),
                PortTraffic("output", int(pixels), True),
            ),
        )

    def configure(self) -> None:
        params = self.params
        self._kernel = filters.gaussian_kernel_1d(params["size"],
                                                  params["sigma"])
        self.span = self.rows(params["height"])

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height)
        return super().writes_rows(instance, port, height)


class BlurHField(_BlurBase):
    """Horizontal phase of the separable Gaussian blur."""

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        # Horizontal taps stay within the row; only the vertical phase
        # reads a halo (and therefore inherits the None default).
        if port == "input":
            return _instance_rows(instance, height)
        return super().reads_rows(instance, port, height)

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        out = job.buffer("output", shape=src.shape, dtype=src.dtype)
        filters.blur_plane_horizontal(src, self._kernel, out=out,
                                      rows=self.span)


class BlurVField(_BlurBase):
    """Vertical phase: reads a halo around its slice, hence crossdep."""

    def run(self, job: JobContext) -> None:
        src: np.ndarray = job.read("input")
        out = job.buffer("output", shape=src.shape, dtype=src.dtype)
        filters.blur_plane_vertical(src, self._kernel, out=out, rows=self.span)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class VideoSink(Component):
    """Writes the output video 'file'; optionally retains frames."""

    ports = PortSpec(
        inputs=("y", "u", "v"),
        params={**GEOMETRY, "collect": COLLECT},
        formats={
            "y": "kind=plane shape=height,width dtype=uint8 colorspace=y",
            "u": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=u",
            "v": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=v",
        },
    )
    WRITE_CYCLES_PER_BYTE = 0.4

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        return JobCost(
            compute_cycles=cls.WRITE_CYCLES_PER_BYTE
            * (w * h + 2 * (w // 2) * (h // 2)),
            traffic=(
                PortTraffic("y", w * h, False),
                PortTraffic("u", (w // 2) * (h // 2), False),
                PortTraffic("v", (w // 2) * (h // 2), False),
            ),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        self.frames: list[tuple[int, Frame]] = []
        self.frames_written = 0

    def configure(self) -> None:
        self.collect = self.params["collect"]

    def run(self, job: JobContext) -> None:
        frame = Frame(
            np.ascontiguousarray(job.read("y")),
            np.ascontiguousarray(job.read("u")),
            np.ascontiguousarray(job.read("v")),
        )
        self.frames_written += 1
        if self.collect:
            # Input planes are stream slots: a stream reuses its buffers
            # (and the process backend its shared-memory planes) once the
            # iteration retires — retained frames must own their pixels.
            self.frames.append((job.iteration, frame.copy()))

    def ordered_frames(self) -> list[Frame]:
        return [f for _, f in sorted(self.frames, key=lambda kv: kv[0])]

    def merge_state(self, state: tuple[int, list[tuple[int, Frame]]]) -> None:
        written, frames = state
        self.frames_written += written
        self.frames.extend(frames)

    def checkpoint_state(self) -> tuple[int, list[tuple[int, Frame]]] | None:
        if not self.frames_written and not self.frames:
            return None
        state = (self.frames_written, self.frames)
        self.frames_written = 0
        self.frames = []
        return state


class PlaneSink(Component):
    """Single-plane sink (the Blur application's output)."""

    ports = PortSpec(
        inputs=("input",),
        params={**GEOMETRY, "collect": COLLECT},
        formats={
            "input": "kind=plane shape=height,width dtype=uint8 colorspace=?c",
        },
    )
    WRITE_CYCLES_PER_BYTE = 0.4

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        return JobCost(
            compute_cycles=cls.WRITE_CYCLES_PER_BYTE * w * h,
            traffic=(PortTraffic("input", w * h, False),),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        self.planes: list[tuple[int, np.ndarray]] = []
        self.frames_written = 0

    def configure(self) -> None:
        self.collect = self.params["collect"]

    def run(self, job: JobContext) -> None:
        plane = job.read("input")
        self.frames_written += 1
        if self.collect:
            self.planes.append((job.iteration, plane.copy()))

    def ordered_planes(self) -> list[np.ndarray]:
        return [p for _, p in sorted(self.planes, key=lambda kv: kv[0])]

    def merge_state(self, state: tuple[int, list[tuple[int, np.ndarray]]]) -> None:
        written, planes = state
        self.frames_written += written
        self.planes.extend(planes)

    def checkpoint_state(self) -> tuple[int, list[tuple[int, np.ndarray]]] | None:
        if not self.frames_written and not self.planes:
            return None
        state = (self.frames_written, self.planes)
        self.frames_written = 0
        self.planes = []
        return state


# ---------------------------------------------------------------------------
# Fused components — the hand-written sequential baselines (paper §4.1)
# ---------------------------------------------------------------------------


class DownscaleBlendField(Component):
    """Down scale + blend in one pass: no intermediate stream.

    The PiP sequential baseline: "the sequential versions ... combine
    several operations, for example down scaling and blending, into a
    single function."
    """

    ports = PortSpec(
        inputs=("background", "overlay_hi"),
        outputs=("output",),
        params={**GEOMETRY, "factor": DIM, **_PLACEMENT},
        formats={
            "background": "kind=plane shape=height,width dtype=?T "
                          "colorspace=?c",
            "overlay_hi": "kind=plane shape=*,* dtype=?T colorspace=?c",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        # overlay_hi is a full frame of the same geometry, scaled by factor
        in_px = w * h  # overlay input pixels
        blend_px = w * h
        compute = (
            DownscaleField.CYCLES_PER_INPUT_PIXEL * in_px
            + BlendField.CYCLES_PER_PIXEL * blend_px
        )
        return JobCost(
            compute_cycles=compute,
            traffic=(
                PortTraffic("background", w * h, False),
                PortTraffic("overlay_hi", in_px, False),
                PortTraffic("output", w * h, True),
            ),
        )

    def configure(self) -> None:
        self.factor = self.params["factor"]
        self.position, self.alpha = _placement(self)

    def run(self, job: JobContext) -> None:
        background: np.ndarray = job.read("background")
        overlay_hi: np.ndarray = job.read("overlay_hi")
        small = filters.downscale_plane(overlay_hi, self.factor)  # scratch
        out = filters.blend_plane(background, small, self.position,
                                  alpha=self.alpha)
        job.write("output", out)


class JpegDecodeIdct(Component):
    """Entropy decode + IDCT in one pass (sequential JPiP baseline).

    A hand-written sequential JPEG decoder IDCTs each block right after
    entropy-decoding it — coefficients live in registers/L1 and are never
    materialized as a stream, unlike the split decode -> IDCT pipeline.
    """

    ports = PortSpec(
        inputs=("input",),
        outputs=("y", "u", "v"),
        params={**GEOMETRY, "ratio": _RATIO},
        formats={
            "input": "kind=bitstream",
            "y": "kind=plane shape=height,width dtype=uint8 colorspace=y",
            "u": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=u",
            "v": "kind=plane shape=height/2,width/2 dtype=uint8 colorspace=v",
        },
    )

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        w, h = instance.params["width"], instance.params["height"]
        raw = w * h + 2 * (w // 2) * (h // 2)
        ratio = instance.params["ratio"]
        compressed = int(raw * ratio)
        compute = (
            JpegDecode.CYCLES_PER_COMPRESSED_BYTE * compressed
            + IdctField.CYCLES_PER_PIXEL * raw
        )
        return JobCost(
            compute_cycles=compute,
            traffic=(
                PortTraffic("input", compressed, False),
                PortTraffic("y", w * h, True),
                PortTraffic("u", (w // 2) * (h // 2), True),
                PortTraffic("v", (w // 2) * (h // 2), True),
            ),
        )

    def run(self, job: JobContext) -> None:
        encoded: jpeg_codec.EncodedFrame = job.read("input")
        frame = jpeg_codec.decode_frame(encoded)
        job.write("y", frame.y)
        job.write("u", frame.u)
        job.write("v", frame.v)


class IdctDownscaleBlendField(Component):
    """IDCT + down scale + blend in one pass (JPiP sequential baseline)."""

    ports = PortSpec(
        inputs=("background", "coeffs"),
        outputs=("output",),
        params={**GEOMETRY, "factor": DIM, "src_width": DIM,
                "src_height": DIM, **_PLACEMENT},
        formats={
            "background": "kind=plane shape=height,width dtype=?T "
                          "colorspace=?c",
            "coeffs": "kind=coeffs shape=src_height,src_width",
            "output": "kind=plane shape=height,width dtype=?T colorspace=?c",
        },
    )

    def configure(self) -> None:
        self.factor = self.params["factor"]
        self.position, self.alpha = _placement(self)

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        params = instance.params
        w, h = params["width"], params["height"]  # background/output
        src_px = params["src_width"] * params["src_height"]
        compute = (
            IdctField.CYCLES_PER_PIXEL * src_px
            + DownscaleField.CYCLES_PER_INPUT_PIXEL * src_px
            + BlendField.CYCLES_PER_PIXEL * w * h
        )
        return JobCost(
            compute_cycles=compute,
            traffic=(
                PortTraffic("background", w * h, False),
                PortTraffic("coeffs", src_px * COEFF_BYTES, False),
                PortTraffic("output", w * h, True),
            ),
        )

    def run(self, job: JobContext) -> None:
        background: np.ndarray = job.read("background")
        coeffs: jpeg_codec.PlaneCoefficients = job.read("coeffs")
        plane = jpeg_codec.idct_plane(coeffs)  # local scratch, stays in cache
        small = filters.downscale_plane(plane, self.factor)
        out = filters.blend_plane(background, small, self.position,
                                  alpha=self.alpha)
        job.write("output", out)

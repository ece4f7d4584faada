"""Planar YUV 4:2:0 video model and synthetic content generation.

The paper's applications process "uncompressed video files" (PiP, Blur)
and MJPEG files (JPiP).  We have no Philips test content, so
:func:`synthetic_clip` generates deterministic moving-pattern video with
tunable spatial detail — enough texture that JPEG entropy coding, down
scaling and blurring all do representative work (DESIGN.md §3).  A
frame's pattern and noise do not depend on its index, so
:func:`synthetic_frame` keeps them per ``(width, height, seed, detail)``
in a read-only 8-entry LRU cache (``16*w*h`` bytes per key) and pays per
frame only for the scroll, the clip and the chroma wash.

A :class:`Frame` is three planes: Y at full resolution, U and V at half
resolution in both dimensions (4:2:0), dtype uint8 — the layout CE
pipelines of the era used.  The per-field components each process one
plane, which is how the applications exploit "the various color fields
in the images concurrently".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import ComponentError

__all__ = ["Frame", "VideoClip", "synthetic_clip", "synthetic_frame", "psnr"]


@dataclass
class Frame:
    """One planar YUV 4:2:0 frame."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        for name, plane in (("y", self.y), ("u", self.u), ("v", self.v)):
            if plane.dtype != np.uint8:
                raise ComponentError(f"plane {name} must be uint8, got {plane.dtype}")
            if plane.ndim != 2:
                raise ComponentError(f"plane {name} must be 2-D, got {plane.ndim}-D")
        h, w = self.y.shape
        if self.u.shape != (h // 2, w // 2) or self.v.shape != (h // 2, w // 2):
            raise ComponentError(
                f"4:2:0 chroma must be {(h // 2, w // 2)}, got "
                f"{self.u.shape}/{self.v.shape}"
            )

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def nbytes(self) -> int:
        return self.y.nbytes + self.u.nbytes + self.v.nbytes

    def plane(self, field: str) -> np.ndarray:
        try:
            return {"y": self.y, "u": self.u, "v": self.v}[field]
        except KeyError:
            raise ComponentError(f"unknown field {field!r}; expected y/u/v") from None

    def copy(self) -> "Frame":
        return Frame(self.y.copy(), self.u.copy(), self.v.copy())

    @classmethod
    def blank(cls, width: int, height: int, *, fill: int = 0) -> "Frame":
        if width % 2 or height % 2:
            raise ComponentError(
                f"4:2:0 frames need even dimensions, got {width}x{height}"
            )
        return cls(
            np.full((height, width), fill, dtype=np.uint8),
            np.full((height // 2, width // 2), 128, dtype=np.uint8),
            np.full((height // 2, width // 2), 128, dtype=np.uint8),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )


@dataclass
class VideoClip:
    """A finite sequence of frames of identical geometry."""

    frames: list[Frame]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ComponentError("a clip needs at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for i, f in enumerate(self.frames):
            if (f.width, f.height) != (w, h):
                raise ComponentError(
                    f"frame {i} is {f.width}x{f.height}, clip is {w}x{h}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height


def synthetic_clip(
    width: int,
    height: int,
    frames: int,
    *,
    seed: int = 0,
    detail: float = 0.5,
    motion: int = 4,
) -> VideoClip:
    """Deterministic moving-pattern video.

    Content: a diagonal luminance gradient + sinusoidal texture that
    scrolls ``motion`` pixels per frame, plus seeded noise scaled by
    ``detail`` (0 = smooth, 1 = noisy).  Chroma carries a slow color
    wash.  All of it is cheap to generate yet non-trivial to compress,
    which is what the JPiP decode stage needs to be representative.
    """
    if frames < 1:
        raise ComponentError(f"need at least 1 frame, got {frames}")
    return VideoClip(
        [
            synthetic_frame(k, width, height, seed=seed, detail=detail,
                            motion=motion)
            for k in range(frames)
        ]
    )


def synthetic_frame(
    index: int,
    width: int,
    height: int,
    *,
    seed: int = 0,
    detail: float = 0.5,
    motion: int = 4,
) -> Frame:
    """Frame ``index`` of the synthetic clip (frames are independent).

    Only the scroll and the chroma phase depend on ``index``; the
    pattern and the noise come from :func:`_still_planes`.
    """
    if width % 2 or height % 2:
        raise ComponentError(f"need even dimensions, got {width}x{height}")
    pattern, noise = _still_planes(width, height, seed, detail)
    phase = index * motion
    shift = phase % width
    # np.roll(pattern, shift, axis=1) + noise, without the rolled copy
    y = np.empty((height, width))
    np.add(pattern[:, width - shift:], noise[:, :shift], out=y[:, :shift])
    np.add(pattern[:, :width - shift], noise[:, shift:], out=y[:, shift:])
    y.clip(0, 255, out=y)
    # chroma varies along one axis only: one row of U, one column of V
    u = np.empty((height // 2, width // 2), dtype=np.uint8)
    v = np.empty_like(u)
    u[:] = _chroma(np.sin, np.arange(width // 2) + phase, 23.0)
    v[:] = _chroma(np.cos, np.arange(height // 2) + phase, 19.0)[:, None]
    return Frame(y.astype(np.uint8), u, v)


def _chroma(wave, position: np.ndarray, period: float) -> np.ndarray:
    return (128 + 40 * wave(position / period)).clip(0, 255).astype(np.uint8)


@functools.lru_cache(maxsize=8)
def _still_planes(
    width: int, height: int, seed: int, detail: float
) -> tuple[np.ndarray, np.ndarray]:
    """The index-free float64 planes of :func:`synthetic_frame`: the
    gradient plus texture pattern, and the seeded noise.  Read-only,
    since every frame of the clip shares them."""
    yy, xx = np.mgrid[0:height, 0:width]
    pattern = (xx * 0.7 + yy * 0.3) % 256
    pattern += 32.0 * np.sin(xx / 7.0) * np.cos(yy / 11.0)
    noise = np.random.default_rng(seed).normal(
        0.0, 24.0 * detail, size=(height, width)
    )
    pattern.flags.writeable = False
    noise.flags.writeable = False
    return pattern, noise


def psnr(a: Frame, b: Frame) -> float:
    """Peak signal-to-noise ratio over the Y plane, in dB (inf if equal)."""
    if a.y.shape != b.y.shape:
        raise ComponentError("PSNR needs identical geometry")
    mse = np.mean((a.y.astype(np.float64) - b.y.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)

"""Pixel kernels: down scaling, blending, separable Gaussian blur.

Pure numpy functions operating on single planes (uint8 2-D arrays), so
the streaming components (:mod:`repro.components.streaming`) stay thin
wrappers that only add slicing and port plumbing.  Each kernel supports
row-range restriction (``rows=(lo, hi)``) because data-parallel copies
process horizontal slices of the image — "in case of images these
regions correspond to horizontal slices" (paper §3.3).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ComponentError

__all__ = [
    "downscale_plane",
    "blend_plane",
    "gaussian_kernel_1d",
    "blur_plane_horizontal",
    "blur_plane_vertical",
]


def downscale_plane(
    src: np.ndarray,
    factor: int,
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Box-average down scaling by an integer ``factor``.

    ``rows`` restricts computation to output rows [lo, hi) — the slice a
    data-parallel copy owns.  The corresponding input rows are
    ``lo*factor .. hi*factor``, so slices read disjoint input regions.
    """
    if factor < 1:
        raise ComponentError(f"downscale factor must be >= 1, got {factor}")
    h, w = src.shape
    if h % factor or w % factor:
        raise ComponentError(
            f"plane {w}x{h} not divisible by downscale factor {factor}"
        )
    oh, ow = h // factor, w // factor
    if out is None:
        out = np.empty((oh, ow), dtype=src.dtype)
    elif out.shape != (oh, ow):
        raise ComponentError(f"out must be {ow}x{oh}, got {out.shape}")
    lo, hi = rows if rows is not None else (0, oh)
    block = src[lo * factor : hi * factor].reshape(hi - lo, factor, ow, factor)
    # Mean over the factor x factor box; stay in integer domain like the
    # fixed-point CE implementations would.
    out[lo:hi] = (
        block.astype(np.uint32).sum(axis=(1, 3)) // (factor * factor)
    ).astype(src.dtype)
    return out


def blend_plane(
    background: np.ndarray,
    overlay: np.ndarray,
    position: tuple[int, int],
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
    alpha: float = 1.0,
) -> np.ndarray:
    """Blend ``overlay`` onto ``background`` at ``position`` (row, col).

    ``alpha=1`` is plain insertion (the PiP case); fractional alpha mixes.
    ``rows`` restricts the *output* rows written by this call.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ComponentError(f"alpha must be in [0,1], got {alpha}")
    bh, bw = background.shape
    oh, ow = overlay.shape
    r0, c0 = position
    if r0 < 0 or c0 < 0 or r0 + oh > bh or c0 + ow > bw:
        raise ComponentError(
            f"overlay {ow}x{oh} at {position} exceeds background {bw}x{bh}"
        )
    if out is None:
        out = np.empty_like(background)
    lo, hi = rows if rows is not None else (0, bh)
    out[lo:hi] = background[lo:hi]
    # Intersect the overlay's row span with [lo, hi).
    olo = max(lo, r0)
    ohi = min(hi, r0 + oh)
    if olo < ohi:
        seg = overlay[olo - r0 : ohi - r0]
        if alpha >= 1.0:
            out[olo:ohi, c0 : c0 + ow] = seg
        else:
            mixed = (
                alpha * seg.astype(np.float32)
                + (1.0 - alpha) * background[olo:ohi, c0 : c0 + ow].astype(np.float32)
            )
            out[olo:ohi, c0 : c0 + ow] = saturate(mixed, 0, 255)
    return out


@functools.lru_cache(maxsize=64)
def gaussian_kernel_1d(size: int, sigma: float = 1.0) -> np.ndarray:
    """Normalized 1-D Gaussian kernel (odd ``size``), float64, read-only.

    Built once per ``(size, sigma)`` and shared by every blur copy.
    """
    if size % 2 != 1 or size < 1:
        raise ComponentError(f"kernel size must be odd and positive, got {size}")
    if sigma <= 0:
        raise ComponentError(f"sigma must be > 0, got {sigma}")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    k /= k.sum()
    k.flags.writeable = False
    return k


def edge_pad(
    block: np.ndarray,
    rows: tuple[int, int],
    cols: tuple[int, int],
    dtype: np.dtype | type,
) -> np.ndarray:
    """``np.pad(block.astype(dtype), (rows, cols), mode="edge")``, cheaply.

    One allocation; the centre (cast on assignment) and the replicated
    edges are filled by slice assignment.  Values are only ever copied,
    so the result is bit-identical to ``np.pad``'s — minus the ~45
    Python-level calls that function spends per invocation, which is
    most of what a small-record kernel costs.
    """
    (top, bottom), (left, right) = rows, cols
    h, w = block.shape
    out = np.empty((top + h + bottom, left + w + right), dtype=dtype)
    centre = out[top : top + h]
    centre[:, left : left + w] = block
    if left:
        centre[:, :left] = block[:, :1]
    if right:
        centre[:, left + w :] = block[:, -1:]
    if top:
        out[:top] = centre[:1]
    if bottom:
        out[top + h :] = centre[-1:]
    return out


def saturate(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.clip(values, lo, hi)`` in place, cheaply.

    Two in-place ufuncs, minus the ~6 Python-level calls ``np.clip``'s
    wrapper spends per invocation.  Returns ``values``; a caller that
    assigns it into an integer buffer casts it as ``astype`` would.
    """
    np.maximum(values, lo, out=values)
    return np.minimum(values, hi, out=values)


def _convolve_rows(plane: np.ndarray, kernel: np.ndarray, lo: int, hi: int,
                   axis: int) -> np.ndarray:
    """Correlate rows [lo,hi) of ``plane`` with ``kernel`` along ``axis``.

    Edge-replicated padding; returns float32 of shape (hi-lo, width).
    For axis=0 (vertical), input rows lo-half..hi+half are read — the
    halo that creates the crossdep dependencies between the horizontal
    and vertical blur phases.
    """
    half = len(kernel) // 2
    h, w = plane.shape
    if axis == 1:
        padded = edge_pad(plane[lo:hi], (0, 0), (half, half), np.float32)
        out = np.zeros((hi - lo, w), dtype=np.float32)
        for i, kv in enumerate(kernel):
            out += np.float32(kv) * padded[:, i : i + w]
        return out
    # vertical: read the halo rows, clamped at the image border
    top = max(lo - half, 0)
    bottom = min(hi + half, h)
    pad_top = half - (lo - top)
    pad_bottom = half - (bottom - hi)
    padded = edge_pad(plane[top:bottom], (pad_top, pad_bottom), (0, 0), np.float32)
    rows = hi - lo
    out = np.zeros((rows, w), dtype=np.float32)
    for i, kv in enumerate(kernel):
        out += np.float32(kv) * padded[i : i + rows]
    return out


def blur_plane_horizontal(
    plane: np.ndarray,
    kernel: np.ndarray,
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Horizontal pass of a separable blur; output in float32-scaled uint8.

    Keeping the intermediate in uint8 (like the fixed-point original)
    loses <1 LSB of precision against a float pipeline.
    """
    h, _ = plane.shape
    lo, hi = rows if rows is not None else (0, h)
    if out is None:
        out = np.empty_like(plane)
    res = _convolve_rows(plane, kernel, lo, hi, axis=1)
    np.rint(res, out=res)
    out[lo:hi] = saturate(res, 0, 255)
    return out


def blur_plane_vertical(
    plane: np.ndarray,
    kernel: np.ndarray,
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Vertical pass; reads a halo of ``len(kernel)//2`` rows around its
    slice, which is why consecutive crossdep parblocks need the i-1/i/i+1
    dependencies of paper Fig. 5."""
    h, _ = plane.shape
    lo, hi = rows if rows is not None else (0, h)
    if out is None:
        out = np.empty_like(plane)
    res = _convolve_rows(plane, kernel, lo, hi, axis=0)
    np.rint(res, out=res)
    out[lo:hi] = saturate(res, 0, 255)
    return out

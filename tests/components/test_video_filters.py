"""Tests for the video model and pixel kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.components.filters import (
    blend_plane,
    blur_plane_horizontal,
    blur_plane_vertical,
    downscale_plane,
    gaussian_kernel_1d,
    slice_rows,
)
from repro.components.video import Frame, VideoClip, psnr, synthetic_clip
from repro.errors import ComponentError


# -- frames ---------------------------------------------------------------------


def test_blank_frame_geometry():
    f = Frame.blank(64, 32)
    assert f.width == 64 and f.height == 32
    assert f.u.shape == (16, 32)
    assert f.nbytes == 64 * 32 + 2 * 32 * 16


def test_frame_rejects_odd_dimensions():
    with pytest.raises(ComponentError):
        Frame.blank(63, 32)


def test_frame_rejects_wrong_chroma():
    y = np.zeros((32, 64), dtype=np.uint8)
    u = np.zeros((10, 10), dtype=np.uint8)
    with pytest.raises(ComponentError, match="chroma"):
        Frame(y, u, u)


def test_frame_rejects_wrong_dtype():
    y = np.zeros((32, 64), dtype=np.float32)
    u = np.zeros((16, 32), dtype=np.uint8)
    with pytest.raises(ComponentError, match="uint8"):
        Frame(y, u, u)


def test_frame_plane_accessor_and_copy():
    f = Frame.blank(16, 16, fill=7)
    assert f.plane("y")[0, 0] == 7
    g = f.copy()
    g.y[0, 0] = 99
    assert f.y[0, 0] == 7
    with pytest.raises(ComponentError):
        f.plane("z")


def test_synthetic_clip_deterministic():
    a = synthetic_clip(64, 32, 3, seed=42)
    b = synthetic_clip(64, 32, 3, seed=42)
    assert all(x == y for x, y in zip(a.frames, b.frames))
    c = synthetic_clip(64, 32, 3, seed=43)
    assert a[0] != c[0]


def test_synthetic_clip_has_motion():
    clip = synthetic_clip(64, 32, 2, seed=1, motion=8)
    assert clip[0] != clip[1]


def test_clip_rejects_mixed_geometry():
    f1 = Frame.blank(16, 16)
    f2 = Frame.blank(32, 16)
    with pytest.raises(ComponentError):
        VideoClip([f1, f2])


def test_psnr_identical_is_inf():
    f = synthetic_clip(32, 32, 1)[0]
    assert psnr(f, f) == float("inf")


def test_psnr_degrades_with_noise():
    f = synthetic_clip(32, 32, 1)[0]
    g = f.copy()
    g.y[:] = np.clip(g.y.astype(int) + 30, 0, 255).astype(np.uint8)
    assert psnr(f, g) < 30


# -- slice math ---------------------------------------------------------------------


def test_slice_rows_partition():
    rows = [slice_rows(100, i, 7) for i in range(7)]
    assert rows[0][0] == 0
    assert rows[-1][1] == 100
    for (a, b), (c, d) in zip(rows, rows[1:]):
        assert b == c


def test_slice_rows_out_of_range():
    with pytest.raises(ComponentError):
        slice_rows(100, 7, 7)


# -- downscale ---------------------------------------------------------------------


def test_downscale_constant_plane():
    plane = np.full((32, 32), 77, dtype=np.uint8)
    out = downscale_plane(plane, 4)
    assert out.shape == (8, 8)
    assert np.all(out == 77)


def test_downscale_box_average():
    plane = np.zeros((4, 4), dtype=np.uint8)
    plane[:2, :2] = 100  # top-left box
    out = downscale_plane(plane, 2)
    assert out[0, 0] == 100
    assert out[0, 1] == 0


def test_downscale_factor_one_is_identity():
    plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert np.array_equal(downscale_plane(plane, 1), plane)


def test_downscale_rejects_indivisible():
    with pytest.raises(ComponentError):
        downscale_plane(np.zeros((30, 30), dtype=np.uint8), 4)


def test_downscale_sliced_equals_whole():
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 256, size=(64, 48), dtype=np.uint8)
    whole = downscale_plane(plane, 4)
    out = np.zeros_like(whole)
    for i in range(4):
        downscale_plane(plane, 4, out=out, rows=slice_rows(16, i, 4))
    assert np.array_equal(out, whole)


# -- blend ------------------------------------------------------------------------------


def test_blend_inserts_overlay():
    bg = np.zeros((16, 16), dtype=np.uint8)
    ov = np.full((4, 4), 200, dtype=np.uint8)
    out = blend_plane(bg, ov, (2, 3))
    assert np.all(out[2:6, 3:7] == 200)
    out[2:6, 3:7] = 0
    assert np.all(out == 0)


def test_blend_alpha_mixes():
    bg = np.full((8, 8), 100, dtype=np.uint8)
    ov = np.full((4, 4), 200, dtype=np.uint8)
    out = blend_plane(bg, ov, (0, 0), alpha=0.5)
    assert out[0, 0] == 150
    assert out[7, 7] == 100


def test_blend_out_of_bounds_rejected():
    bg = np.zeros((8, 8), dtype=np.uint8)
    ov = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ComponentError):
        blend_plane(bg, ov, (6, 6))


def test_blend_sliced_equals_whole():
    rng = np.random.default_rng(1)
    bg = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    ov = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    whole = blend_plane(bg, ov, (5, 9))
    out = np.zeros_like(bg)
    for i in range(5):
        blend_plane(bg, ov, (5, 9), out=out, rows=slice_rows(32, i, 5))
    assert np.array_equal(out, whole)


# -- blur ------------------------------------------------------------------------------


def test_gaussian_kernel_normalized_and_symmetric():
    for size in (3, 5, 7):
        k = gaussian_kernel_1d(size, 1.0)
        assert k.sum() == pytest.approx(1.0)
        assert np.allclose(k, k[::-1])
        assert k[size // 2] == max(k)


def test_gaussian_kernel_rejects_even_size():
    with pytest.raises(ComponentError):
        gaussian_kernel_1d(4)


def test_blur_constant_plane_unchanged():
    plane = np.full((24, 24), 123, dtype=np.uint8)
    k = gaussian_kernel_1d(5, 1.0)
    h = blur_plane_horizontal(plane, k)
    v = blur_plane_vertical(h, k)
    assert np.all(v == 123)


def test_blur_smooths_impulse():
    plane = np.zeros((17, 17), dtype=np.uint8)
    plane[8, 8] = 255
    k = gaussian_kernel_1d(3, 1.0)
    out = blur_plane_vertical(blur_plane_horizontal(plane, k), k)
    assert out[8, 8] < 255
    assert out[7, 8] > 0 and out[8, 7] > 0


def test_blur_5x5_smooths_more_than_3x3():
    clip = synthetic_clip(64, 64, 1, seed=3, detail=1.0)
    plane = clip[0].y
    for size in (3, 5):
        k = gaussian_kernel_1d(size, 1.0)
        out = blur_plane_vertical(blur_plane_horizontal(plane, k), k)
        if size == 3:
            var3 = np.var(out.astype(float))
        else:
            var5 = np.var(out.astype(float))
    assert var5 < var3 < np.var(plane.astype(float))


@settings(max_examples=20)
@given(
    st.integers(2, 6),  # n slices
    st.sampled_from([3, 5]),
    st.integers(0, 2**31 - 1),
)
def test_prop_sliced_blur_equals_whole(n, size, seed):
    """Slice-parallel h+v blur with halo == whole-plane blur, always."""
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=(48, 40), dtype=np.uint8)
    k = gaussian_kernel_1d(size, 1.0)
    whole = blur_plane_vertical(blur_plane_horizontal(plane, k), k)
    mid = np.zeros_like(plane)
    for i in range(n):
        blur_plane_horizontal(plane, k, out=mid, rows=slice_rows(48, i, n))
    out = np.zeros_like(plane)
    for i in range(n):
        blur_plane_vertical(mid, k, out=out, rows=slice_rows(48, i, n))
    assert np.array_equal(out, whole)


# -- edge_pad ------------------------------------------------------------------


@settings(max_examples=60)
@given(
    st.integers(1, 7), st.integers(1, 9),          # block shape
    st.tuples(st.integers(0, 3), st.integers(0, 3)),  # rows (top, bottom)
    st.tuples(st.integers(0, 3), st.integers(0, 3)),  # cols (left, right)
    st.sampled_from([np.uint8, np.int16]),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**31 - 1),
)
def test_prop_edge_pad_is_np_pad(h, w, rows, cols, src, dst, seed):
    """``edge_pad`` is ``np.pad(mode="edge")`` of the cast block, bit for bit."""
    from repro.components.filters import edge_pad

    rng = np.random.default_rng(seed)
    info = np.iinfo(src)
    block = rng.integers(info.min, info.max, size=(h, w)).astype(src)
    reference = np.pad(block.astype(dst), (rows, cols), mode="edge")
    got = edge_pad(block, rows, cols, dst)
    assert got.dtype == reference.dtype and got.shape == reference.shape
    assert np.array_equal(got, reference)
    # a strided view (what the sliced kernels pass) pads the same
    assert np.array_equal(
        edge_pad(block[::-1, ::2], rows, cols, dst),
        np.pad(block[::-1, ::2].astype(dst), (rows, cols), mode="edge"),
    )


@pytest.mark.parametrize("class_name", [
    "blend_field", "downscale_blend_field", "idct_downscale_blend_field"])
def test_blend_reconfigure_rejects_a_malformed_placement(class_name):
    """``pos=3`` or ``alpha=x`` used to escape as a bare ValueError."""
    from repro.components.registry import DEFAULT_REGISTRY
    from repro.core.program import ComponentInstance

    cls = DEFAULT_REGISTRY[class_name]
    raw = {"width": 64, "height": 48, "factor": 4, "src_width": 64,
           "src_height": 48}
    params = cls.ports.bind(class_name, {
        k: v for k, v in raw.items() if k in cls.ports.params})
    blend = cls(ComponentInstance(class_name, class_name, class_name,
                                  params=params, streams={}))
    blend.reconfigure("pos=3,4; alpha=0.5")
    assert (blend.position, blend.alpha) == ((3, 4), 0.5)
    for request, param in [("pos=3", "pos"), ("pos=x,1", "pos"),
                           ("pos=1,2,3", "pos"), ("alpha=x", "alpha"),
                           ("alpha=2", "alpha")]:
        with pytest.raises(ComponentError, match=f"param '{param}'"):
            blend.reconfigure(request)
        assert (blend.position, blend.alpha) == ((3, 4), 0.5)

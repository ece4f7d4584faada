"""A row-contract copy writes only its rows.

``Component.row_contract`` promises that copy *i* of *n* touches only its
span of the output plane (``Component.rows``, from ``row_span``), and
that the copies differ only in the rows they cover.  Every real executor
trusts the promise and runs one copy, so here every shipped row-contract
class runs each copy alone on an output slot pre-filled with a sentinel:
no row outside the copy's span may change, the spans of copies 0..n-1
must tile the plane, and the rows the copies wrote must assemble into
what one unsliced copy writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.components.jpeg import codec
from repro.components.registry import default_registry
from repro.core.program import ComponentInstance
from repro.hinch.component import JobContext
from repro.hinch.events import EventBroker
from repro.hinch.stream import StreamStore

REG = default_registry()
SENTINEL = 77
W = 16


def _plane(height: int, width: int = W, dtype=np.uint8) -> np.ndarray:
    rng = np.random.default_rng(height * 1000 + width)
    return rng.integers(0, 256, (height, width)).astype(dtype)


def _idct(height):
    qtable = codec.frame_qtables(75)[0]
    zz = codec.quantize_plane(_plane(height), qtable)
    coeffs = codec.coefficients_from_zigzag(zz, qtable, width=W, height=height)
    return {"width": W, "height": height}, {"coeffs": coeffs}, np.uint8


def _downscale(height):
    return ({"width": 2 * W, "height": 2 * height, "factor": 2},
            {"input": _plane(2 * height, 2 * W)}, np.uint8)


def _blend(height):
    return ({"width": W, "height": height, "pos_row": 1, "pos_col": 2,
             "alpha": 0.5, "overlay_width": 4, "overlay_height": 3},
            {"background": _plane(height), "overlay": _plane(3, 4)},
            np.uint8)


def _convert(height):
    return ({"dtype": "float32", "scale": 0.5, "width": W, "height": height},
            {"input": _plane(height)}, np.float32)


def _blur(height):
    return ({"width": W, "height": height, "size": 5},
            {"input": _plane(height)}, np.uint8)


def _map(height):
    return ({"width": W, "height": height, "kernel": "gain", "factor": 1.5,
             "bias": -20.0},
            {"input": _plane(height)}, np.uint8)


def _stencil(height):
    # copies read a halo across their span's edges; one whole copy
    # replicates only the plane's border rows
    return ({"width": W, "height": height, "kernel": "edge", "halo": 1},
            {"input": _plane(height)}, np.uint8)


def _band(height):
    samples = _plane(height, dtype=np.int16) * 97 - 12000
    return ({"channels": height, "block": W, "taps": "diff"},
            {"input": samples}, np.int16)


#: row-contract class -> output height -> (params, inputs, output dtype);
#: every output plane is ``W`` wide
CASES = {
    "idct_field": _idct,
    "downscale_field": _downscale,
    "blend_field": _blend,
    "convert_plane": _convert,
    "blur_h_field": _blur,
    "blur_v_field": _blur,
    "band_filter": _band,
    "map_plane": _map,
    "stencil_plane": _stencil,
}


def test_every_row_contract_class_has_a_case():
    assert set(CASES) == {n for n, cls in REG.items() if cls.row_contract}


def _run_copy(name, height, assignment):
    """Run one copy on a sentinel-filled slot: (its output, its span)."""
    cls = REG[name]
    params, inputs, dtype = CASES[name](height)
    (port,) = cls.ports.outputs
    store = StreamStore()
    for stream, value in inputs.items():
        store.stream(stream).put(0, value)
    store.stream(port).set_expected((height, W), dtype)
    out = store.stream(port).ensure_buffer(0)
    out[...] = SENTINEL
    instance = ComponentInstance(
        name, name, name, cls.ports.bind(name, params),
        {p: p for p in cls.ports.all_ports}, slice=assignment)
    component = cls(instance)
    component.run(JobContext(instance, 0, store, EventBroker(), {}))
    return out, component.rows(height)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_copy_writes_only_its_rows(name, n):
    for units in (5, 9, 16):
        height = units * REG[name].row_block
        whole, _ = _run_copy(name, height, None)
        assembled = np.full_like(whole, SENTINEL)
        spans = []
        for i in range(n):
            out, (lo, hi) = _run_copy(name, height, (i, n))
            outside = np.ones(height, dtype=bool)
            outside[lo:hi] = False
            assert (out[outside] == SENTINEL).all(), (height, i, lo, hi)
            assembled[lo:hi] = out[lo:hi]
            spans.append((lo, hi))
        assert spans[0][0] == 0 and spans[-1][1] == height
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:])), spans
        assert np.array_equal(assembled, whole), (height, spans)

"""Tests for the mini-JPEG codec."""

from __future__ import annotations

import dataclasses
import gc
import heapq
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.components.jpeg import (
    BitReader,
    BitWriter,
    CHROMA_QTABLE,
    HuffmanCodec,
    LUMA_QTABLE,
    ZIGZAG_ORDER,
    build_canonical_codes,
    decode_frame,
    dequantize,
    dct2_blocks,
    encode_frame,
    entropy_decode_frame,
    idct2_blocks,
    idct_plane,
    quantize,
    scale_qtable,
    unzigzag_blocks,
    zigzag_blocks,
)
from repro.components.jpeg import codec
from repro.components.jpeg.codec import (
    EncodedFrame,
    EncodedPlane,
    _blockify,
    _decode_table,
    _encode_plane_scalar,
    _entropy_decode_plane_scalar,
    coefficients_from_zigzag,
    encode_plane,
    entropy_decode_plane,
    fused_dct_quant_zigzag,
    quantize_plane,
)
from repro.components.jpeg.huffman import LOOKUP_BITS, canonical_codes
from repro.components.video import psnr, synthetic_clip, synthetic_frame
from repro.errors import CodecError


# -- DCT ----------------------------------------------------------------------


def test_dct_idct_roundtrip():
    rng = np.random.default_rng(0)
    blocks = rng.normal(0, 50, size=(10, 8, 8))
    assert np.allclose(idct2_blocks(dct2_blocks(blocks)), blocks, atol=1e-9)


def test_dct_constant_block_is_dc_only():
    block = np.full((1, 8, 8), 42.0)
    coeffs = dct2_blocks(block)
    assert coeffs[0, 0, 0] == pytest.approx(42.0 * 8)
    rest = coeffs.copy()
    rest[0, 0, 0] = 0
    assert np.allclose(rest, 0, atol=1e-9)


def test_dct_energy_preservation():
    rng = np.random.default_rng(1)
    block = rng.normal(0, 30, size=(1, 8, 8))
    coeffs = dct2_blocks(block)
    assert np.sum(coeffs**2) == pytest.approx(np.sum(block**2))


def test_dct_shape_validation():
    with pytest.raises(CodecError):
        dct2_blocks(np.zeros((4, 4)))


# -- quantization ---------------------------------------------------------------


def test_quantize_dequantize_bounds_error():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(0, 100, size=(5, 8, 8))
    q = quantize(coeffs, LUMA_QTABLE)
    dq = dequantize(q, LUMA_QTABLE)
    assert np.all(np.abs(dq - coeffs) <= LUMA_QTABLE / 2 + 1e-9)


def test_scale_qtable_quality_extremes():
    q50 = scale_qtable(LUMA_QTABLE, 50)
    assert np.array_equal(q50, LUMA_QTABLE)
    q90 = scale_qtable(LUMA_QTABLE, 90)
    q10 = scale_qtable(LUMA_QTABLE, 10)
    assert np.all(q90 <= q50)
    assert np.all(q10 >= q50)
    assert np.all(scale_qtable(LUMA_QTABLE, 100) >= 1)


def test_scale_qtable_rejects_bad_quality():
    with pytest.raises(CodecError):
        scale_qtable(LUMA_QTABLE, 0)


# -- zigzag ------------------------------------------------------------------------


def test_zigzag_order_is_permutation():
    assert sorted(ZIGZAG_ORDER.tolist()) == list(range(64))


def test_zigzag_starts_with_known_prefix():
    # Classic JPEG zigzag: 0, 1, 8, 16, 9, 2, 3, 10, ...
    assert ZIGZAG_ORDER[:8].tolist() == [0, 1, 8, 16, 9, 2, 3, 10]


def test_zigzag_roundtrip():
    rng = np.random.default_rng(3)
    blocks = rng.integers(-100, 100, size=(7, 8, 8))
    assert np.array_equal(unzigzag_blocks(zigzag_blocks(blocks)), blocks)


# -- bit io ------------------------------------------------------------------------------


def test_bitwriter_reader_roundtrip():
    w = BitWriter()
    w.write(0b101, 3)
    w.write(0b1, 1)
    w.write(0xABC, 12)
    data = w.getvalue()
    r = BitReader(data)
    assert r.read(3) == 0b101
    assert r.read(1) == 0b1
    assert r.read(12) == 0xABC


def test_bitwriter_rejects_overflow_value():
    w = BitWriter()
    with pytest.raises(CodecError):
        w.write(4, 2)


def test_bitreader_exhaustion():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(CodecError):
        r.read(1)


@given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 17)),
                max_size=50))
def test_prop_bit_io_roundtrip(items):
    w = BitWriter()
    clipped = [(v & ((1 << n) - 1), n) for v, n in items]
    for v, n in clipped:
        w.write(v, n)
    r = BitReader(w.getvalue())
    for v, n in clipped:
        assert r.read(n) == v


# -- huffman ------------------------------------------------------------------------------


def test_canonical_codes_prefix_free():
    freqs = {0: 100, 1: 50, 2: 20, 3: 5, 4: 1}
    codes = build_canonical_codes(freqs)
    items = [(format(c, f"0{l}b")) for c, l in codes.values()]
    for a in items:
        for b in items:
            if a != b:
                assert not b.startswith(a)


def test_frequent_symbols_get_shorter_codes():
    freqs = {0: 1000, 1: 10, 2: 1}
    codes = build_canonical_codes(freqs)
    assert codes[0][1] <= codes[1][1] <= codes[2][1]


def test_single_symbol_alphabet():
    codec = HuffmanCodec.from_frequencies({7: 3})
    w = BitWriter()
    codec.encode_symbol(w, 7)
    assert codec.decode_symbol(BitReader(w.getvalue())) == 7


def test_codec_roundtrip_from_lengths():
    freqs = {i: (i + 1) ** 2 for i in range(10)}
    codec = HuffmanCodec.from_frequencies(freqs)
    rebuilt = HuffmanCodec.from_lengths(codec.lengths())
    assert rebuilt.codes == codec.codes


def test_unknown_symbol_rejected():
    codec = HuffmanCodec.from_frequencies({1: 1, 2: 1})
    with pytest.raises(CodecError):
        codec.encode_symbol(BitWriter(), 99)


@settings(max_examples=25)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=300))
def test_prop_huffman_roundtrip(symbols):
    freqs: dict[int, int] = {}
    for s in symbols:
        freqs[s] = freqs.get(s, 0) + 1
    codec = HuffmanCodec.from_frequencies(freqs)
    w = BitWriter()
    for s in symbols:
        codec.encode_symbol(w, s)
    r = BitReader(w.getvalue())
    assert [codec.decode_symbol(r) for _ in symbols] == symbols


def _heap_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Unlimited Huffman code lengths by pairwise heap merging: the
    reference the two-queue builder must reproduce merge for merge."""
    symbols = [(f, s) for s, f in freqs.items() if f > 0]
    if len(symbols) == 1:
        return {symbols[0][1]: 1}
    heap = [(f, s, [s]) for f, s in sorted(symbols)]
    heapq.heapify(heap)
    lengths = {s: 0 for _, s in symbols}
    while len(heap) > 1:
        fa, ta, syms_a = heapq.heappop(heap)
        fb, tb, syms_b = heapq.heappop(heap)
        for s in syms_a + syms_b:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, min(ta, tb), syms_a + syms_b))
    return lengths


def _fibonacci_freqs(n: int, symbols=None) -> dict[int, int]:
    """Fibonacci weights: the skew that gives the deepest Huffman tree
    (n - 1 levels for n symbols)."""
    freqs, a, b = {}, 1, 1
    for s in symbols if symbols is not None else range(n):
        freqs[s] = a
        a, b = b, a + b
    return freqs


@st.composite
def _frequency_tables(draw):
    symbols = draw(st.lists(st.integers(0, 255), min_size=1, max_size=160,
                            unique=True))
    kind = draw(st.sampled_from(["flat", "wide", "skewed", "fibonacci"]))
    if kind == "fibonacci":
        return _fibonacci_freqs(len(symbols), symbols)
    weights = {"flat": st.integers(1, 4), "wide": st.integers(1, 10**6),
               "skewed": st.integers(0, 45).map(lambda e: int(1.6 ** e))}
    return {s: draw(weights[kind]) for s in symbols}


@settings(max_examples=300, deadline=None)
@given(_frequency_tables())
def test_prop_codes_are_length_limited_and_otherwise_optimal(freqs):
    """At most LOOKUP_BITS bits and a prefix code (Kraft sum <= 1); when
    the unlimited Huffman lengths already fit, exactly those lengths."""
    codes = build_canonical_codes(freqs)
    lengths = {s: length for s, (_, length) in codes.items()}
    assert set(lengths) == set(freqs)
    assert max(lengths.values()) <= LOOKUP_BITS
    assert sum(2.0 ** -length for length in lengths.values()) <= 1.0
    assert codes == canonical_codes(lengths)  # what the decoder rebuilds
    unlimited = _heap_lengths(freqs)
    if max(unlimited.values()) <= LOOKUP_BITS:
        assert lengths == unlimited


def test_limiter_caps_a_fibonacci_alphabet():
    freqs = _fibonacci_freqs(30)
    assert max(_heap_lengths(freqs).values()) == 29
    codes = build_canonical_codes(freqs)
    assert max(length for _, length in codes.values()) == LOOKUP_BITS
    codec_ = HuffmanCodec(codes)
    symbols = [s for s, f in freqs.items() for _ in range(min(f, 3))]
    w = BitWriter()
    for s in symbols:
        codec_.encode_symbol(w, s)
    r = BitReader(w.getvalue())
    assert [codec_.decode_symbol(r) for _ in symbols] == symbols


def test_alphabet_too_large_to_limit_is_rejected():
    with pytest.raises(CodecError, match="at most 16 bits"):
        build_canonical_codes({s: 1 for s in range((1 << LOOKUP_BITS) + 1)})


# -- full codec ---------------------------------------------------------------------------------


def test_plane_roundtrip_high_quality():
    rng = np.random.default_rng(4)
    plane = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    q = scale_qtable(LUMA_QTABLE, 95)
    decoded = idct_plane(entropy_decode_plane(encode_plane(plane, q)))
    err = np.abs(decoded.astype(int) - plane.astype(int))
    assert err.mean() < 12  # noise is the hardest content


def test_smooth_plane_near_lossless():
    xx, yy = np.mgrid[0:32, 0:32]
    plane = ((xx + yy) * 2).astype(np.uint8)
    q = scale_qtable(LUMA_QTABLE, 95)
    decoded = idct_plane(entropy_decode_plane(encode_plane(plane, q)))
    assert np.abs(decoded.astype(int) - plane.astype(int)).max() <= 4


def test_frame_roundtrip_psnr():
    frame = synthetic_clip(64, 48, 1, seed=5, detail=0.3)[0]
    encoded = encode_frame(frame, quality=90)
    decoded = decode_frame(encoded)
    assert psnr(frame, decoded) > 30


def test_compression_actually_compresses():
    frame = synthetic_clip(128, 64, 1, seed=6, detail=0.2)[0]
    encoded = encode_frame(frame, quality=75)
    assert encoded.nbytes < frame.nbytes / 2


def test_lower_quality_smaller_output():
    frame = synthetic_clip(64, 64, 1, seed=7, detail=0.5)[0]
    hi = encode_frame(frame, quality=90).nbytes
    lo = encode_frame(frame, quality=30).nbytes
    assert lo < hi


def test_pack_unpack_roundtrip():
    frame = synthetic_clip(32, 32, 1, seed=8)[0]
    encoded = encode_frame(frame, quality=80)
    packed = encoded.pack()
    assert isinstance(packed, bytes)
    unpacked = EncodedFrame.unpack(packed)
    assert decode_frame(unpacked) == decode_frame(encoded)


def test_unpack_rejects_garbage():
    with pytest.raises(CodecError, match="magic"):
        EncodedFrame.unpack(b"not a jpeg at all")


def test_entropy_stage_exposes_coefficients():
    frame = synthetic_clip(32, 32, 1, seed=9)[0]
    coeffs = entropy_decode_frame(encode_frame(frame))
    assert set(coeffs) == {"y", "u", "v"}
    assert coeffs["y"].blocks.shape == (16, 8, 8)
    assert coeffs["u"].blocks.shape == (4, 8, 8)


def test_idct_sliced_equals_whole():
    frame = synthetic_clip(64, 64, 1, seed=10)[0]
    coeffs = entropy_decode_frame(encode_frame(frame))["y"]
    whole = idct_plane(coeffs)
    out = np.zeros_like(whole)
    for i in range(4):
        idct_plane(coeffs, rows=(i * 16, (i + 1) * 16), out=out)
    assert np.array_equal(out, whole)


def test_idct_rejects_unaligned_slice():
    frame = synthetic_clip(32, 32, 1)[0]
    coeffs = entropy_decode_frame(encode_frame(frame))["y"]
    with pytest.raises(CodecError, match="block-aligned"):
        idct_plane(coeffs, rows=(3, 19))


def test_idct_into_a_non_contiguous_out_raises_rather_than_lose_the_write():
    frame = synthetic_clip(32, 32, 1, seed=20)[0]
    coeffs = entropy_decode_frame(encode_frame(frame))["y"]
    whole = idct_plane(coeffs)
    backing = np.zeros((32, 64), dtype=np.uint8)
    out = backing[:, ::2]  # every other column: reshaping it would copy
    try:
        idct_plane(coeffs, rows=(8, 24), out=out)
    except CodecError as exc:
        assert "C-contiguous" in str(exc)
    else:  # written: then into ``out`` itself
        assert np.array_equal(out[8:24], whole[8:24])


def test_plane_indivisible_by_8_rejected():
    with pytest.raises(CodecError, match="divisible"):
        encode_plane(np.zeros((20, 20), dtype=np.uint8), LUMA_QTABLE)


# -- fused encoder kernel ------------------------------------------------------


def test_fused_dct_quant_zigzag_matches_staged_pipeline():
    rng = np.random.default_rng(11)
    for quality in (25, 75, 95):
        plane = rng.integers(0, 256, size=(24, 32), dtype=np.uint8)
        q = scale_qtable(LUMA_QTABLE, quality)
        blocks = _blockify(plane) - 128.0
        staged = zigzag_blocks(quantize(dct2_blocks(blocks), q))
        fused = fused_dct_quant_zigzag(blocks, q)
        assert fused.dtype == staged.dtype
        assert np.array_equal(fused, staged)


def test_fused_dct_quant_zigzag_rejects_bad_shape():
    with pytest.raises(CodecError, match="8, 8"):
        fused_dct_quant_zigzag(np.zeros((3, 4, 4)), LUMA_QTABLE)


def test_vectorized_encode_matches_scalar_reference():
    rng = np.random.default_rng(13)
    plane = rng.integers(0, 256, size=(16, 24), dtype=np.uint8)
    q = scale_qtable(CHROMA_QTABLE, 60)
    assert encode_plane(plane, q).pack() == _encode_plane_scalar(
        plane, q
    ).pack()


# -- table-driven entropy decoder vs the scalar reference -----------------------


def _decode_outcome(decode, plane: EncodedPlane):
    """The decoded blocks, or the CodecError message."""
    try:
        return decode(plane).blocks
    except CodecError as exc:
        return str(exc)


def _assert_same_outcome(plane: EncodedPlane) -> None:
    table = _decode_outcome(entropy_decode_plane, plane)
    scalar = _decode_outcome(_entropy_decode_plane_scalar, plane)
    if isinstance(scalar, str):
        assert isinstance(table, str), f"scalar raised {scalar!r}, table did not"
        assert table == scalar
    else:
        assert not isinstance(table, str), table
        assert table.dtype == scalar.dtype
        assert np.array_equal(table, scalar)


def _noise_plane(seed: int, quality: int, shape=(32, 40)) -> EncodedPlane:
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    return encode_plane(plane, scale_qtable(LUMA_QTABLE, quality))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([10, 50, 75, 95, 100]))
def test_prop_table_decoder_matches_scalar_reference(seed, quality):
    _assert_same_outcome(_noise_plane(seed, quality))


def test_table_decoder_matches_scalar_on_a_frame():
    frame = synthetic_clip(64, 48, 1, seed=14, detail=0.5)[0]
    for field in "yuv":
        plane = encode_frame(frame, quality=75).plane(field)
        assert _decode_table(plane.dc_lengths, ac=False) is not None
        _assert_same_outcome(plane)


def test_truncated_payload_raises_like_scalar():
    """Every truncation either decodes (only padding was lost) or raises
    the scalar decoder's error: a final code cut short is not accepted."""
    plane = _noise_plane(15, 75, shape=(16, 16))
    for keep in range(len(plane.payload)):
        _assert_same_outcome(
            dataclasses.replace(plane, payload=plane.payload[:keep]))
    with pytest.raises(CodecError, match="exhausted"):
        entropy_decode_plane(
            dataclasses.replace(plane, payload=plane.payload[:-1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 2**20), min_size=1,
                                           max_size=4))
def test_prop_corrupt_payload_raises_like_scalar(seed, flips):
    plane = _noise_plane(seed, 75, shape=(16, 24))
    payload = bytearray(plane.payload)
    for flip in flips:
        bit = flip % (8 * len(payload))
        payload[bit >> 3] ^= 0x80 >> (bit & 7)
    _assert_same_outcome(dataclasses.replace(plane, payload=bytes(payload)))


def test_out_of_range_dc_raises_codec_error():
    # DC size 31 at every block: the prediction sum leaves int32 on block 2
    dc = HuffmanCodec.from_lengths({0: 1, 31: 1})
    ac = HuffmanCodec.from_lengths({0: 1, 1: 1})
    writer = BitWriter()
    for _ in range(4):
        dc.encode_symbol(writer, 31)
        writer.write((1 << 31) - 1, 31)
        ac.encode_symbol(writer, 0)  # EOB
    plane = EncodedPlane(
        width=32, height=8, qtable=np.ones((8, 8)),
        dc_lengths=dc.lengths(), ac_lengths=ac.lengths(),
        payload=writer.getvalue(),
    )
    assert _decode_table(plane.dc_lengths, ac=False) is not None
    for decode in (entropy_decode_plane, _entropy_decode_plane_scalar):
        with pytest.raises(CodecError, match="out of int32 range"):
            decode(plane)


def test_decode_tables_are_code_sized():
    plane = _noise_plane(16, 75)
    for lengths, ac in ((plane.dc_lengths, False), (plane.ac_lengths, True)):
        table, bits = _decode_table(lengths, ac=ac)
        assert bits == max(lengths.values())
        assert len(table) == 1 << bits


def test_over_subscribed_lengths_stay_code_sized():
    """Lengths no prefix code can have (a malformed header) build no
    more than ``2 ** bits`` entries: the codes that overflow their length
    are dropped, as the scalar decoder can never match them either."""
    lengths = {symbol: 1 for symbol in range(200)}
    lengths[200] = 16
    table, bits = _decode_table(lengths, ac=True)
    assert len(table) == 1 << bits == 1 << 16
    plane = _noise_plane(19, 75, shape=(8, 16))
    _assert_same_outcome(dataclasses.replace(plane, ac_lengths=lengths))


def test_codes_longer_than_the_table_fall_back_to_scalar(monkeypatch):
    plane = _noise_plane(17, 95)
    expected = entropy_decode_plane(plane).blocks
    monkeypatch.setattr(codec, "LOOKUP_BITS", 2)
    assert _decode_table(plane.ac_lengths, ac=True) is None
    assert np.array_equal(entropy_decode_plane(plane).blocks, expected)


def _profile_events(fn, *args) -> int:
    events = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    fn(*args)  # warm-up: numpy's lazy set-up
    # no collection inside the count: its callbacks and the finalizers
    # it runs would be counted as the function's calls
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events[0]


def test_entropy_decode_makes_no_call_per_coefficient():
    """The decoder's Python calls do not grow with the coefficients it
    decodes: a noise plane (thousands of coefficients) costs what a flat
    one (one DC per block) does, fewer than one call per block."""
    q = scale_qtable(LUMA_QTABLE, 95)
    rng = np.random.default_rng(18)
    noisy = encode_plane(rng.integers(0, 256, size=(64, 64), dtype=np.uint8), q)
    flat = encode_plane(np.full((64, 64), 77, dtype=np.uint8), q)
    coefficients = np.count_nonzero(entropy_decode_plane(noisy).blocks)
    assert coefficients > 50 * noisy.n_blocks
    calls = _profile_events(entropy_decode_plane, noisy)
    assert calls == _profile_events(entropy_decode_plane, flat)
    assert calls < noisy.n_blocks


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([25, 50, 75, 95]))
def test_prop_huffman_roundtrip_elision_is_lossless(seed, quality):
    """quantize_plane -> coefficients_from_zigzag equals the real
    encode -> entropy-decode path bit for bit: the foundation of the
    fused source+decode kernel skipping the bitstream entirely."""
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    q = scale_qtable(LUMA_QTABLE, quality)
    via_bitstream = entropy_decode_plane(encode_plane(plane, q))
    direct = coefficients_from_zigzag(
        quantize_plane(plane, q), q, width=16, height=16
    )
    assert direct.width == via_bitstream.width
    assert direct.height == via_bitstream.height
    assert direct.blocks.dtype == via_bitstream.blocks.dtype
    assert np.array_equal(direct.blocks, via_bitstream.blocks)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([50, 75, 95]))
def test_prop_roundtrip_error_bounded_by_quality(seed, quality):
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    q = scale_qtable(LUMA_QTABLE, quality)
    decoded = idct_plane(entropy_decode_plane(encode_plane(plane, q)))
    # error bounded by half the largest quantization step (plus rounding)
    assert np.abs(decoded.astype(int) - plane.astype(int)).max() <= q.max()


def test_entropy_encode_makes_no_call_per_symbol():
    """The encoder's Python calls do not grow with the symbols it codes
    or with the plane: a 64x64 noise plane, a flat one and a 256x256
    noise plane cost the same give or take a few calls, and building a
    code costs the same for any alphabet, length-limited or not."""
    q = scale_qtable(LUMA_QTABLE, 95)
    rng = np.random.default_rng(21)
    calls = [
        _profile_events(encode_plane, plane, q)
        for plane in (rng.integers(0, 256, size=(64, 64), dtype=np.uint8),
                      np.full((64, 64), 77, dtype=np.uint8),
                      rng.integers(0, 256, size=(256, 256), dtype=np.uint8))
    ]
    assert max(calls) - min(calls) <= 10, calls
    alphabets = [{s: (s * 7919) % 101 + 1 for s in range(n)}
                 for n in (2, 20, 160)] + [_fibonacci_freqs(30)]
    assert max(_heap_lengths(alphabets[-1]).values()) > LOOKUP_BITS
    build = [_profile_events(build_canonical_codes, freqs)
             for freqs in alphabets]
    assert len(set(build)) == 1, build


@pytest.mark.parametrize("width, height", [(720, 576), (1280, 720)])
def test_paper_scale_frames_decode_through_the_tables(width, height,
                                                      monkeypatch):
    """Every plane of a paper-sized frame has codes the table decoder
    takes (no plane reaches the scalar fallback), and the bitstream
    round-trip is lossless on the quantized coefficients — also the luma
    plane, whose unlimited Huffman AC codes run past LOOKUP_BITS."""

    def no_scalar(encoded):
        raise AssertionError("scalar decoder reached")

    monkeypatch.setattr(codec, "_entropy_decode_plane_scalar", no_scalar)
    frame = synthetic_frame(0, width=width, height=height, seed=500)
    luma_q, chroma_q = codec.frame_qtables(75)
    symbols, _, _, is_dc = codec._record_stream(quantize_plane(frame.y, luma_q))
    ac_freqs = codec._freq_dict(symbols[~is_dc])
    assert max(_heap_lengths(ac_freqs).values()) > LOOKUP_BITS
    for plane, q in ((frame.y, luma_q), (frame.u, chroma_q),
                     (frame.v, chroma_q)):
        encoded = encode_plane(plane, q)
        assert _decode_table(encoded.dc_lengths, ac=False) is not None
        assert _decode_table(encoded.ac_lengths, ac=True) is not None
        h, w = plane.shape
        direct = coefficients_from_zigzag(quantize_plane(plane, q), q,
                                          width=w, height=h)
        assert np.array_equal(entropy_decode_plane(encoded).blocks,
                              direct.blocks)

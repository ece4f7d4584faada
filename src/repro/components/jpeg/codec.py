"""The mini-JPEG codec pipeline: frames <-> bitstreams.

Stage split mirrors paper Fig. 7:

* ``encode_frame``    — producer side (the MJPEG "files" are generated
  in memory by the workload generator);
* ``entropy_decode_frame`` — the "JPEG decode" component: Huffman + RLE
  + DC prediction + dequantization, yielding coefficient blocks;
* ``idct_plane``      — the "IDCT Y/U/V" components: coefficients back to
  pixels, restrictable to a row slice for data parallelism.

Planes must have dimensions divisible by 8 (all the paper's formats do).
Serialization (``pack``/``unpack``) produces self-contained bytes so the
compressed size is measurable — the cost model charges entropy-decode
cycles per compressed byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.components.jpeg.dct import _C, _CT, dct2_blocks, idct2_blocks
from repro.components.jpeg.huffman import (
    LOOKUP_BITS,
    BitReader,
    BitWriter,
    HuffmanCodec,
    canonical_codes,
    pack_fields,
)
from repro.components.jpeg.quant import (
    CHROMA_QTABLE,
    LUMA_QTABLE,
    dequantize,
    quantize,
    scale_qtable,
)
from repro.components.jpeg.zigzag import (
    ZIGZAG_ORDER,
    unzigzag_blocks,
    zigzag_blocks,
)
from repro.components.video import Frame
from repro.errors import CodecError

__all__ = [
    "EncodedPlane",
    "EncodedFrame",
    "PlaneCoefficients",
    "encode_plane",
    "entropy_decode_plane",
    "encode_frame",
    "frame_qtables",
    "entropy_decode_frame",
    "fused_dct_quant_zigzag",
    "quantize_plane",
    "coefficients_from_zigzag",
    "idct_plane",
    "decode_frame",
]

_MAGIC = b"RJPG"
_EOB = 0x00  # (run=0, size=0): end of block
_ZRL = 0xF0  # (run=15, size=0): sixteen zeros


@dataclass
class EncodedPlane:
    """One entropy-coded plane."""

    width: int
    height: int
    qtable: np.ndarray
    dc_lengths: dict[int, int]
    ac_lengths: dict[int, int]
    payload: bytes

    @property
    def n_blocks(self) -> int:
        return (self.width // 8) * (self.height // 8)

    @property
    def nbytes(self) -> int:
        """Serialized size (header + tables + payload)."""
        return 4 + 64 + 2 * (len(self.dc_lengths) + len(self.ac_lengths)) + 8 + len(
            self.payload
        )

    def pack(self) -> bytes:
        out = bytearray()
        out += struct.pack("<HH", self.width, self.height)
        out += self.qtable.astype(np.uint8).tobytes()
        for table in (self.dc_lengths, self.ac_lengths):
            out += struct.pack("<H", len(table))
            for symbol in sorted(table):
                out += struct.pack("<BB", symbol, table[symbol])
        out += struct.pack("<I", len(self.payload))
        out += self.payload
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> tuple["EncodedPlane", int]:
        width, height = struct.unpack_from("<HH", data, offset)
        offset += 4
        qtable = np.frombuffer(data[offset : offset + 64], dtype=np.uint8).reshape(
            8, 8
        ).astype(np.float64)
        offset += 64
        tables: list[dict[int, int]] = []
        for _ in range(2):
            (count,) = struct.unpack_from("<H", data, offset)
            offset += 2
            table: dict[int, int] = {}
            for _ in range(count):
                symbol, length = struct.unpack_from("<BB", data, offset)
                offset += 2
                table[symbol] = length
            tables.append(table)
        (plen,) = struct.unpack_from("<I", data, offset)
        offset += 4
        payload = data[offset : offset + plen]
        if len(payload) != plen:
            raise CodecError("truncated plane payload")
        offset += plen
        return (
            cls(
                width=width,
                height=height,
                qtable=qtable,
                dc_lengths=tables[0],
                ac_lengths=tables[1],
                payload=payload,
            ),
            offset,
        )


@dataclass
class EncodedFrame:
    """One compressed frame (3 planes) — an 'MJPEG file' record."""

    #: format ``kind=`` this payload satisfies (interface reconciliation)
    FORMAT_KIND = "bitstream"

    y: EncodedPlane
    u: EncodedPlane
    v: EncodedPlane

    @property
    def nbytes(self) -> int:
        return len(_MAGIC) + self.y.nbytes + self.u.nbytes + self.v.nbytes

    def plane(self, field: str) -> EncodedPlane:
        try:
            return {"y": self.y, "u": self.u, "v": self.v}[field]
        except KeyError:
            raise CodecError(f"unknown field {field!r}") from None

    def pack(self) -> bytes:
        return _MAGIC + self.y.pack() + self.u.pack() + self.v.pack()

    @classmethod
    def unpack(cls, data: bytes) -> "EncodedFrame":
        if data[:4] != _MAGIC:
            raise CodecError("bad magic: not a mini-JPEG frame")
        offset = 4
        y, offset = EncodedPlane.unpack(data, offset)
        u, offset = EncodedPlane.unpack(data, offset)
        v, offset = EncodedPlane.unpack(data, offset)
        return cls(y=y, u=u, v=v)


@dataclass
class PlaneCoefficients:
    """Dequantized DCT coefficients: output of the entropy decoder."""

    #: format ``kind=`` this payload satisfies (interface reconciliation)
    FORMAT_KIND = "coeffs"

    width: int
    height: int
    blocks: np.ndarray  # (n_blocks, 8, 8) float64

    @property
    def blocks_per_row(self) -> int:
        return self.width // 8

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes


def _magnitude(value: int) -> tuple[int, int]:
    """JPEG magnitude coding: value -> (size category, amplitude bits)."""
    if value == 0:
        return 0, 0
    size = int(abs(value)).bit_length()
    if value > 0:
        return size, value
    return size, value + (1 << size) - 1


def _from_magnitude(size: int, bits: int) -> int:
    if size == 0:
        return 0
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


def _blockify(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    if h % 8 or w % 8:
        raise CodecError(f"plane {w}x{h} not divisible by 8")
    return (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
        .astype(np.float64)
    )


def _deblockify(blocks: np.ndarray, width: int, height: int) -> np.ndarray:
    return (
        blocks.reshape(height // 8, width // 8, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(height, width)
    )


def _vec_magnitude(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_magnitude`: values -> (sizes, amplitude bits).

    The size category is the bit length of ``|value|``, which is
    ``frexp``'s exponent (exact: the values are int32 differences, far
    below 2^53).
    """
    values = values.astype(np.int64)
    sizes = np.frexp(np.abs(values))[1].astype(np.int64)
    bits = np.where(values >= 0, values, values + (1 << sizes) - 1)
    return sizes, bits


def _record_stream(zz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized symbol-stream construction from zigzagged blocks.

    Returns ``(symbols, amp_bits, amp_sizes, is_dc)`` arrays in exact
    bitstream order — the same record sequence the per-block Python loop
    produced: per block a DC size/amplitude record, then for each nonzero
    AC coefficient its ZRL prefixes and ``(run<<4)|size`` record, then an
    EOB unless the block's last nonzero sits at position 63.
    """
    n = zz.shape[0]
    dc = zz[:, 0].astype(np.int64)
    dc[1:] -= zz[:-1, 0]  # DC prediction: differences from the last block
    dc_sizes, dc_bits = _vec_magnitude(dc)

    rows, cols = zz[:, 1:].nonzero()
    cols += 1
    prev = np.zeros(cols.shape, dtype=np.int64)  # 0 before a block's first
    prev[1:] = np.where(rows[1:] == rows[:-1], cols[:-1], 0)
    run = cols - prev - 1
    zrl = run >> 4
    rem = run & 15
    ac_sizes, ac_bits = _vec_magnitude(zz[rows, cols])
    ac_syms = (rem << 4) | ac_sizes

    full = np.zeros(n, dtype=bool)  # last nonzero at 63: no EOB
    full[rows[cols == 63]] = True
    eob_blocks = (~full).nonzero()[0]

    n_zrl = int(zrl.sum())
    zrl_rows = rows.repeat(zrl)
    zrl_cols = cols.repeat(zrl)
    zrl_sub = np.arange(n_zrl, dtype=np.int64) - (zrl.cumsum() - zrl).repeat(zrl)

    # Stream order via a unique integer sort key (block, position, sub):
    # DC at position 0, ZRLs just before their AC record, EOB at 64.
    keys = np.concatenate([
        np.arange(0, n * 65 * 17, 65 * 17, dtype=np.int64),
        (zrl_rows * 65 + zrl_cols) * 17 + zrl_sub,
        (rows * 65 + cols) * 17 + zrl,
        (eob_blocks * 65 + 64) * 17,
    ])
    symbols = np.zeros(keys.shape, dtype=np.int64)  # EOB is symbol 0
    amp_bits = np.zeros(keys.shape, dtype=np.int64)
    amp_sizes = np.zeros(keys.shape, dtype=np.int64)
    ac = n + n_zrl  # first AC record; ZRLs sit between the DCs and it
    end = ac + rows.size
    symbols[:n] = dc_sizes
    symbols[n:ac] = _ZRL
    symbols[ac:end] = ac_syms
    amp_bits[:n] = dc_bits
    amp_bits[ac:end] = ac_bits
    amp_sizes[:n] = dc_sizes
    amp_sizes[ac:end] = ac_sizes
    is_dc = np.zeros(keys.shape, dtype=bool)
    is_dc[:n] = True
    order = keys.argsort()
    return symbols[order], amp_bits[order], amp_sizes[order], is_dc[order]


def _freq_dict(symbols: np.ndarray) -> dict[int, int]:
    counts = np.bincount(symbols)
    present = counts.nonzero()[0]
    return dict(zip(present.tolist(), counts[present].tolist()))


def fused_dct_quant_zigzag(blocks: np.ndarray, qtable: np.ndarray) -> np.ndarray:
    """DCT -> quantize -> zigzag as one kernel: (n, 8, 8) -> (n, 64) int32.

    Elementwise identical to
    ``zigzag_blocks(quantize(dct2_blocks(blocks), qtable))`` — the same
    matmuls, division, ``rint`` and ``int32`` cast in the same order —
    but the quantized and zigzagged stages are never materialized as
    separate (n, 8, 8) arrays: one expression, one output buffer.
    """
    if blocks.shape[-2:] != (8, 8):
        raise CodecError(f"expected (..., 8, 8) blocks, got {blocks.shape}")
    return (
        np.rint((_C @ blocks @ _CT) / qtable)
        .astype(np.int32)
        .reshape(blocks.shape[0], 64)[:, ZIGZAG_ORDER]
    )


def quantize_plane(plane: np.ndarray, qtable: np.ndarray) -> np.ndarray:
    """Encoder front end: pixel plane -> (n, 64) int32 zigzag coefficients."""
    return fused_dct_quant_zigzag(_blockify(plane) - 128.0, qtable)


def coefficients_from_zigzag(
    zz: np.ndarray, qtable: np.ndarray, *, width: int, height: int
) -> PlaneCoefficients:
    """Decoder back end: zigzag coefficients -> dequantized blocks.

    ``coefficients_from_zigzag(quantize_plane(p, q), q, ...)`` equals
    ``entropy_decode_plane(encode_plane(p, q))`` bit for bit: the
    Huffman/RLE/DC-prediction round-trip in between is lossless on the
    int32 zigzag coefficients, so a fused source+decode kernel may skip
    the bitstream detour entirely.
    """
    blocks = dequantize(unzigzag_blocks(zz), qtable)
    return PlaneCoefficients(width=width, height=height, blocks=blocks)


def encode_plane(plane: np.ndarray, qtable: np.ndarray) -> EncodedPlane:
    """Full encode of one plane (vectorized entropy coding).

    Bit-identical to the per-symbol reference implementation
    (:func:`_encode_plane_scalar`, kept for tests/fallback): the record
    stream, code tables, and packed payload are byte-for-byte equal.
    The transform front end runs as the fused
    :func:`fused_dct_quant_zigzag` kernel.
    """
    height, width = plane.shape
    blocks = _blockify(plane) - 128.0
    zz = fused_dct_quant_zigzag(blocks, qtable)  # (n, 64)

    symbols, amp_bits, amp_sizes, is_dc = _record_stream(zz)
    dc_codec = HuffmanCodec.from_frequencies(_freq_dict(symbols[is_dc]))
    ac_codec = HuffmanCodec.from_frequencies(_freq_dict(symbols[~is_dc]))

    dc_codes, dc_lens = dc_codec.code_arrays()
    ac_codes, ac_lens = ac_codec.code_arrays()
    fields = np.empty(2 * symbols.size, dtype=np.int64)
    lengths = np.empty(2 * symbols.size, dtype=np.int64)
    fields[0::2] = np.where(is_dc, dc_codes[symbols], ac_codes[symbols])
    fields[1::2] = amp_bits
    lengths[0::2] = np.where(is_dc, dc_lens[symbols], ac_lens[symbols])
    lengths[1::2] = amp_sizes
    payload = pack_fields(fields, lengths)

    return EncodedPlane(
        width=width,
        height=height,
        qtable=np.asarray(qtable, dtype=np.float64),
        dc_lengths=dc_codec.lengths(),
        ac_lengths=ac_codec.lengths(),
        payload=payload,
    )


def _encode_plane_scalar(plane: np.ndarray, qtable: np.ndarray) -> EncodedPlane:
    """Per-symbol reference encoder (pre-vectorization semantics)."""
    height, width = plane.shape
    blocks = _blockify(plane) - 128.0
    zz = zigzag_blocks(quantize(dct2_blocks(blocks), qtable))  # (n, 64) int32

    # Build the symbol stream: DC differences + AC run-lengths.
    dc = zz[:, 0].astype(np.int64)
    dc_diff = np.diff(dc, prepend=0)
    records: list[tuple[int, int, int, bool]] = []  # (symbol, bits, size, is_dc)
    dc_freq: dict[int, int] = {}
    ac_freq: dict[int, int] = {}
    for b in range(zz.shape[0]):
        size, bits = _magnitude(int(dc_diff[b]))
        records.append((size, bits, size, True))
        dc_freq[size] = dc_freq.get(size, 0) + 1
        row = zz[b]
        nz = np.nonzero(row[1:])[0] + 1
        prev = 0
        for idx in nz:
            run = int(idx) - prev - 1
            while run > 15:
                records.append((_ZRL, 0, 0, False))
                ac_freq[_ZRL] = ac_freq.get(_ZRL, 0) + 1
                run -= 16
            size, bits = _magnitude(int(row[idx]))
            symbol = (run << 4) | size
            records.append((symbol, bits, size, False))
            ac_freq[symbol] = ac_freq.get(symbol, 0) + 1
            prev = int(idx)
        if prev != 63:
            records.append((_EOB, 0, 0, False))
            ac_freq[_EOB] = ac_freq.get(_EOB, 0) + 1

    dc_codec = HuffmanCodec.from_frequencies(dc_freq)
    ac_codec = HuffmanCodec.from_frequencies(ac_freq)
    writer = BitWriter()
    for symbol, bits, size, is_dc in records:
        (dc_codec if is_dc else ac_codec).encode_symbol(writer, symbol)
        if size:
            writer.write(bits, size)
    return EncodedPlane(
        width=width,
        height=height,
        qtable=np.asarray(qtable, dtype=np.float64),
        dc_lengths=dc_codec.lengths(),
        ac_lengths=ac_codec.lengths(),
        payload=writer.getvalue(),
    )


_WINDOW_BITS = 32  # per-position window: lookup index in the top bits,
                   # amplitude fields read from the top ``size`` bits

#: zero windows past the payload's end: as many bits as one block can
#: consume (a DC code and amplitude, then at most 63 AC codes with 15-bit
#: amplitudes), so a block that starts by the payload's end and runs
#: past it reads zeros, and the overrun is checked once per block instead
#: of once per field
_WINDOW_PAD = LOOKUP_BITS + _WINDOW_BITS + 63 * (LOOKUP_BITS + 15)

#: table entry for a peek that matches no code: length 0, run -1
_INVALID = (0, -1, 0, 0, 0, 0)


def _decode_table(
    lengths: dict[int, int], *, ac: bool
) -> tuple[list[tuple[int, ...]], int] | None:
    """Code-sized lookup table over the next ``bits`` bits of the stream.

    ``bits`` is the longest code length, so the table has ``2 ** bits``
    entries; every peek whose leading bits equal a code holds that
    code's entry ``(length, run, size, shift, half, offset)``: the AC
    symbol split into its zero run and amplitude size (a DC symbol is a
    size with run 0), and the constants that turn the next ``size`` bits
    of a window into a signed amplitude.  ``None`` when the scalar
    decoder must run instead: an empty table, a zero-length or
    over-long code, or a DC size wider than a window.
    """
    if not lengths:
        return None
    bits = max(lengths.values())
    if bits > LOOKUP_BITS or min(lengths.values()) < 1 or (
        not ac and max(lengths) > _WINDOW_BITS
    ):
        return None
    table = [_INVALID] * (1 << bits)
    for symbol, (code, length) in canonical_codes(lengths).items():
        if code >> length:  # over-subscribed lengths: no peek reaches it,
            break           # nor any later (longer, larger) code
        run, size = (symbol >> 4, symbol & 0x0F) if ac else (0, symbol)
        spare = bits - length
        table[code << spare : (code + 1) << spare] = [(
            length, run, size, _WINDOW_BITS - size, (1 << size) >> 1,
            (1 << size) - 1,
        )] * (1 << spare)
    return table, bits


def _bit_windows(payload: bytes) -> list[int]:
    """``windows[i]`` = the 32 bits starting at bit ``i`` (zero-padded),
    for every bit of the payload and :data:`_WINDOW_PAD` bits past it.

    Built byte-wise: a 40-bit value per byte position covers all eight
    bit offsets within that byte, so construction is eight strided
    shifts over byte-sized arrays rather than 32 over bit-sized ones.
    """
    nbytes = len(payload) + (_WINDOW_PAD + 7) // 8
    padded = np.zeros(nbytes + 4, dtype=np.uint64)
    padded[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    wide = (
        (padded[:nbytes] << np.uint64(32))
        | (padded[1 : nbytes + 1] << np.uint64(24))
        | (padded[2 : nbytes + 2] << np.uint64(16))
        | (padded[3 : nbytes + 3] << np.uint64(8))
        | padded[4 : nbytes + 4]
    )
    windows = np.empty(nbytes * 8, dtype=np.uint64)
    mask = np.uint64(0xFFFFFFFF)
    for r in range(8):
        windows[r::8] = (wide >> np.uint64(8 - r)) & mask
    return windows.tolist()


def _stream_error(message: str, pos: int, total: int) -> CodecError:
    """The error the scalar decoder raises: running out of bits first."""
    return CodecError("bitstream exhausted" if pos > total else message)


def entropy_decode_plane(encoded: EncodedPlane) -> PlaneCoefficients:
    """Huffman + RLE + DC prediction + dequantization.

    Table-driven, with no Python call per coefficient: each Huffman code
    resolves with one indexed lookup into a code-sized table
    (:func:`_decode_table`), amplitude fields read straight out of
    precomputed 32-bit windows, and each coefficient is one indexed
    store into the int32 output buffer.  The result, and the
    :class:`CodecError` raised on a malformed stream, equal the scalar
    reference decoder's, which runs instead when a table cannot be built
    (:data:`LOOKUP_BITS`).
    """
    dc_table = _decode_table(encoded.dc_lengths, ac=False)
    ac_table = _decode_table(encoded.ac_lengths, ac=True)
    if dc_table is None or ac_table is None:
        return _entropy_decode_plane_scalar(encoded)
    dc, dc_bits = dc_table
    ac, ac_bits = ac_table
    dc_shift = _WINDOW_BITS - dc_bits
    ac_shift = _WINDOW_BITS - ac_bits
    windows = _bit_windows(encoded.payload)
    total = len(encoded.payload) * 8
    n = encoded.n_blocks
    zz = np.zeros(n * 64, dtype=np.int32)
    out = memoryview(zz)
    dc_prev = 0
    pos = 0
    for base in range(0, n * 64, 64):
        length, run, size, shift, half, offset = dc[windows[pos] >> dc_shift]
        if run < 0:
            raise _stream_error("invalid Huffman code in bitstream",
                                pos + dc_bits, total)
        pos += length
        if size:
            bits = windows[pos] >> shift
            pos += size
            if bits < half:
                bits -= offset
            dc_prev += bits
            if not -(1 << 31) <= dc_prev < 1 << 31:
                raise _stream_error("coefficient out of int32 range",
                                    pos, total)
        out[base] = dc_prev
        slot = base + 1
        end = base + 64
        while slot < end:
            length, run, size, shift, half, offset = ac[
                windows[pos] >> ac_shift
            ]
            pos += length
            if size:
                slot += run
                if slot >= end:
                    raise _stream_error("AC run overflows block", pos, total)
                bits = windows[pos] >> shift
                pos += size
                if bits < half:
                    bits -= offset
                out[slot] = bits
                slot += 1
            elif not run:  # EOB
                break
            elif run == 15:  # ZRL: sixteen zeros
                slot += 16
            elif run < 0:
                raise _stream_error("invalid Huffman code in bitstream",
                                    pos + ac_bits, total)
            else:  # a zero-size coefficient after ``run`` zeros
                slot += run
                if slot >= end:
                    raise _stream_error("AC run overflows block", pos, total)
                slot += 1
        if pos > total:
            raise CodecError("bitstream exhausted")
    blocks = dequantize(unzigzag_blocks(zz.reshape(n, 64)), encoded.qtable)
    return PlaneCoefficients(
        width=encoded.width, height=encoded.height, blocks=blocks
    )


def _entropy_decode_plane_scalar(encoded: EncodedPlane) -> PlaneCoefficients:
    """Bit-at-a-time reference decoder (pre-vectorization semantics)."""
    dc_codec = HuffmanCodec.from_lengths(encoded.dc_lengths)
    ac_codec = HuffmanCodec.from_lengths(encoded.ac_lengths)
    reader = BitReader(encoded.payload)
    n = encoded.n_blocks
    zz = np.zeros((n, 64), dtype=np.int32)
    dc_prev = 0
    for b in range(n):
        size = dc_codec.decode_symbol(reader)
        bits = reader.read(size) if size else 0
        dc_prev += _from_magnitude(size, bits)
        if not -(1 << 31) <= dc_prev < 1 << 31:
            raise CodecError("coefficient out of int32 range")
        zz[b, 0] = dc_prev
        pos = 1
        while pos < 64:
            symbol = ac_codec.decode_symbol(reader)
            if symbol == _EOB:
                break
            if symbol == _ZRL:
                pos += 16
                continue
            run = symbol >> 4
            size = symbol & 0x0F
            pos += run
            if pos >= 64:
                raise CodecError("AC run overflows block")
            bits = reader.read(size)
            zz[b, pos] = _from_magnitude(size, bits)
            pos += 1
    blocks = dequantize(unzigzag_blocks(zz), encoded.qtable)
    return PlaneCoefficients(
        width=encoded.width, height=encoded.height, blocks=blocks
    )


def idct_plane(
    coeffs: PlaneCoefficients, rows: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse DCT back to uint8 pixels, optionally for rows [lo, hi).

    ``rows`` bounds must be multiples of 8 (block granularity) — the
    applications pick slice counts that satisfy this (e.g. 45 slices of a
    720-row image = 16 rows each).  The pixels are rounded and clamped
    in place and land in ``out`` through one assignment into a block view
    of its rows, so ``out`` must be C-contiguous (a reshape of any other
    layout could be a copy, and the write would be lost).
    """
    height, width = coeffs.height, coeffs.width
    if out is None:
        out = np.empty((height, width), dtype=np.uint8)
    elif out.shape != (height, width):
        raise CodecError(f"out must be {width}x{height}, got {out.shape}")
    elif not out.flags.c_contiguous:
        raise CodecError("out must be C-contiguous")
    lo, hi = rows if rows is not None else (0, height)
    if lo % 8 or hi % 8:
        raise CodecError(f"row slice [{lo},{hi}) not block-aligned")
    bpr = coeffs.blocks_per_row
    block_lo, block_hi = (lo // 8) * bpr, (hi // 8) * bpr
    pixels = idct2_blocks(coeffs.blocks[block_lo:block_hi])
    pixels += 128.0
    np.rint(pixels, out=pixels)
    np.maximum(pixels, 0.0, out=pixels)
    np.minimum(pixels, 255.0, out=pixels)
    # (block row, row in block, block, column in block) over out[lo:hi]
    view = out[lo:hi].reshape((hi - lo) // 8, 8, bpr, 8)
    view.transpose(0, 2, 1, 3)[...] = pixels.reshape(-1, bpr, 8, 8)
    return out


def frame_qtables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(luma, chroma)`` quantization tables at ``quality`` (1..100)."""
    return (scale_qtable(LUMA_QTABLE, quality),
            scale_qtable(CHROMA_QTABLE, quality))


def encode_frame(
    frame: Frame, *, quality: int = 75,
    qtables: tuple[np.ndarray, np.ndarray] | None = None,
) -> EncodedFrame:
    """Compress one YUV 4:2:0 frame.

    ``qtables`` (from :func:`frame_qtables`) replaces ``quality`` for a
    caller that scales the tables once, not per frame.
    """
    luma_q, chroma_q = frame_qtables(quality) if qtables is None else qtables
    return EncodedFrame(
        y=encode_plane(frame.y, luma_q),
        u=encode_plane(frame.u, chroma_q),
        v=encode_plane(frame.v, chroma_q),
    )


def entropy_decode_frame(
    encoded: EncodedFrame,
) -> dict[str, PlaneCoefficients]:
    """The "JPEG decode" stage: all three planes to coefficients."""
    return {
        "y": entropy_decode_plane(encoded.y),
        "u": entropy_decode_plane(encoded.u),
        "v": entropy_decode_plane(encoded.v),
    }


def decode_frame(encoded: EncodedFrame) -> Frame:
    """Full decode (entropy + IDCT) of all planes."""
    coeffs = entropy_decode_frame(encoded)
    return Frame(
        y=idct_plane(coeffs["y"]),
        u=idct_plane(coeffs["u"]),
        v=idct_plane(coeffs["v"]),
    )

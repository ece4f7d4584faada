"""Bit-level I/O and canonical Huffman coding.

The entropy layer of the mini-JPEG codec: symbol frequencies are gathered
per encoded plane, a canonical Huffman code is built (so only the
``(symbol, length)`` table needs to travel in the header), and amplitude
bits are written raw after each symbol, as in baseline JPEG.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import CodecError

__all__ = [
    "BitWriter", "BitReader", "build_canonical_codes", "canonical_codes",
    "HuffmanCodec", "pack_fields",
]

#: longest code the table-driven decoder indexes: its lookup tables have
#: ``2 ** max_code_length`` entries, so a table stays at or under 2^16.
#: Longer codes — possible only for pathological frequency distributions
#: — fall back to the bit-at-a-time scalar decoder.
LOOKUP_BITS = 16


def pack_fields(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """MSB-first bit-pack ``values[i]`` into ``lengths[i]`` bits each.

    The vectorized equivalent of a :class:`BitWriter` loop (including the
    zero-padding to a byte boundary), used by the table-driven JPEG
    entropy encoder: every field of one plane — Huffman codes and
    amplitude bits interleaved — is emitted by one call.  Zero-length
    fields contribute nothing, so callers can interleave optional
    amplitude fields without filtering.
    """
    values = np.asarray(values, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return b""
    # Explode each field into its bits: bit j of field i (MSB first) is
    # (values[i] >> (lengths[i] - 1 - j)) & 1.
    rep_values = np.repeat(values, lengths)
    rep_lengths = np.repeat(lengths, lengths)
    starts = np.cumsum(lengths) - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    bits = (rep_values >> (rep_lengths - 1 - within)) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes()


class BitWriter:
    """MSB-first bit accumulator producing bytes."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bits_written = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits == 0 and value != 0):
            raise CodecError(f"cannot write {value} in {nbits} bits")
        if nbits and value >> nbits:
            raise CodecError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        self.bits_written += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1 if self._nbits else 0

    def getvalue(self) -> bytes:
        """Flush (zero-padded to a byte boundary) and return the bytes."""
        out = bytearray(self._out)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """MSB-first bit consumer over a bytes object."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise CodecError(f"cannot read {nbits} bits")
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise CodecError("bitstream exhausted")
        value = 0
        pos = self._pos
        while nbits:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, nbits)
            shift = avail - take
            value = (value << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            nbits -= take
        self._pos = pos
        return value

    def read_bit(self) -> int:
        return self.read(1)


def build_canonical_codes(freqs: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Symbol -> (code, length) canonical Huffman codes from frequencies.

    Deterministic: ties in the heap break on symbol value; canonical
    assignment sorts by (length, symbol).  A single-symbol alphabet gets a
    1-bit code.
    """
    symbols = [(f, s) for s, f in freqs.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0][1]: (0, 1)}
    # Huffman code lengths via pairwise merging; entries are
    # (freq, tiebreak, [symbols in subtree]).
    heap: list[tuple[int, int, list[int]]] = [
        (f, s, [s]) for f, s in sorted(symbols)
    ]
    heapq.heapify(heap)
    lengths = {s: 0 for _, s in symbols}
    while len(heap) > 1:
        fa, ta, syms_a = heapq.heappop(heap)
        fb, tb, syms_b = heapq.heappop(heap)
        for s in syms_a + syms_b:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, min(ta, tb), syms_a + syms_b))
    return canonical_codes(lengths)


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Symbol -> (code, length): canonical codes in (length, symbol) order.

    The header carries only these lengths; the decoder rebuilds its
    tables from them without a Python call per symbol.
    """
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for length, symbol in sorted(zip(lengths.values(), lengths)):
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


@dataclass
class HuffmanCodec:
    """Encode/decode symbol sequences with a canonical code table."""

    codes: dict[int, tuple[int, int]]

    def __post_init__(self) -> None:
        self._decode: dict[tuple[int, int], int] = {
            (length, code): symbol
            for symbol, (code, length) in self.codes.items()
        }
        self.max_length = max(
            (length for _, length in self.codes.values()), default=0
        )

    @classmethod
    def from_frequencies(cls, freqs: dict[int, int]) -> "HuffmanCodec":
        return cls(build_canonical_codes(freqs))

    @classmethod
    def from_lengths(cls, lengths: dict[int, int]) -> "HuffmanCodec":
        return cls(canonical_codes(lengths))

    def lengths(self) -> dict[int, int]:
        """The (symbol -> code length) table; enough to reconstruct."""
        return {s: length for s, (_, length) in self.codes.items()}

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        try:
            code, length = self.codes[symbol]
        except KeyError:
            raise CodecError(f"symbol {symbol} not in Huffman table") from None
        writer.write(code, length)

    def decode_symbol(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, self.max_length + 1):
            code = (code << 1) | reader.read_bit()
            symbol = self._decode.get((length, code))
            if symbol is not None:
                return symbol
        raise CodecError("invalid Huffman code in bitstream")

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, lengths)`` int64 arrays indexed by symbol value.

        Symbols absent from the table have length 0; the vectorized
        encoder multiplies frequencies through these, so an absent symbol
        can only be reached on a malformed record stream.
        """
        arrays = getattr(self, "_code_arrays", None)
        if arrays is None:
            codes = np.zeros(256, dtype=np.int64)
            lengths = np.zeros(256, dtype=np.int64)
            for symbol, (code, length) in self.codes.items():
                codes[symbol] = code
                lengths[symbol] = length
            arrays = self._code_arrays = (codes, lengths)
        return arrays

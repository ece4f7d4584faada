"""Bit-level I/O and canonical Huffman coding.

The entropy layer of the mini-JPEG codec: symbol frequencies are gathered
per encoded plane, a canonical Huffman code is built (so only the
``(symbol, length)`` table needs to travel in the header), and amplitude
bits are written raw after each symbol, as in baseline JPEG.  Codes are
length-limited to :data:`LOOKUP_BITS` (16) bits, as baseline JPEG's are,
so every stream this encoder writes decodes through the table-driven
decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodecError

__all__ = [
    "BitWriter", "BitReader", "build_canonical_codes", "canonical_codes",
    "HuffmanCodec", "pack_fields",
]

#: longest code the table-driven decoder indexes (its lookup tables have
#: ``2 ** max_code_length`` entries, so a table stays at or under 2^16),
#: and the longest code :func:`build_canonical_codes` emits.  Longer
#: codes — only in streams from elsewhere — fall back to the
#: bit-at-a-time scalar decoder.
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
    rep_values = values.repeat(lengths)
    rep_lengths = lengths.repeat(lengths)
    starts = lengths.cumsum() - lengths
    within = np.arange(total, dtype=np.int64) - starts.repeat(lengths)
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

    Deterministic: merges take the two smallest ``(freq, min symbol)``
    subtrees; canonical assignment sorts by (length, symbol).  Lengths
    over :data:`LOOKUP_BITS` are capped as in baseline JPEG (T.81 Annex
    K.3, without its reserved all-ones code); lengths already within it
    are kept.  A single-symbol alphabet gets a 1-bit code.

    The Python calls made do not depend on the alphabet: the merge is a
    two-queue walk over the sorted leaves (internal nodes come out in
    nondecreasing ``(freq, min symbol)`` order, so the smaller queue
    front is the heap's minimum), depths come from parent indices, and
    the cap moves counts between lengths.
    """
    leaves = sorted([(f, s) for s, f in freqs.items() if f > 0])
    n = len(leaves)
    if n < 2:
        return {leaves[0][1]: (0, 1)} if n else {}
    if n > 1 << LOOKUP_BITS:
        raise CodecError(
            f"{n} symbols cannot have codes of at most {LOOKUP_BITS} bits")
    # Nodes 0..n-1 are the leaves, n..2n-2 the merges in creation order,
    # each keyed (freq, min symbol); keys are unique, so ``<`` decides.
    keys = leaves + [None] * (n - 1)
    parent = [0] * (2 * n - 1)
    leaf, node = 0, n  # fronts of the leaf and internal-node queues
    for new in range(n, 2 * n - 1):
        if leaf < n and (node == new or keys[leaf] < keys[node]):
            a = leaf
            leaf += 1
        else:
            a = node
            node += 1
        if leaf < n and (node == new or keys[leaf] < keys[node]):
            b = leaf
            leaf += 1
        else:
            b = node
            node += 1
        (fa, ta), (fb, tb) = keys[a], keys[b]
        keys[new] = (fa + fb, ta if ta < tb else tb)
        parent[a] = parent[b] = new
    depth = [0] * (2 * n - 1)
    i = 2 * n - 3
    while i >= 0:  # a parent is created after its children
        depth[i] = depth[parent[i]] + 1
        i -= 1
    order = sorted(zip(depth, [s for _, s in leaves]))  # (length, symbol)
    # BITS: how many codes of each length; the Annex K.3 adjustment
    # moves two codes of the longest length i > LOOKUP_BITS up a level
    # by splitting a shorter code at length j < i - 1 (the counts and
    # the Kraft sum stay the same), until no code is longer than
    # LOOKUP_BITS.  A no-op when none is.
    top = order[-1][0]
    bits = [0] * (top + 1)
    for length, _ in order:
        bits[length] += 1
    i = top
    while i > LOOKUP_BITS:
        while bits[i]:
            j = i - 2
            while not bits[j]:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
        i -= 1
    # The (capped) lengths, handed out in (length, symbol) order.
    lengths: dict[int, int] = {}
    length = left = 0
    for _, symbol in order:
        while not left:
            length += 1
            left = bits[length]
        lengths[symbol] = length
        left -= 1
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
        decode: dict[tuple[int, int], int] = {}
        max_length = 0
        for symbol, (code, length) in self.codes.items():
            decode[(length, code)] = symbol
            if length > max_length:
                max_length = length
        self._decode = decode
        self.max_length = max_length

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

"""Entropy coding: bit I/O and Exp-Golomb codes (H.264 style).

Quantized coefficient blocks are coded as a count of non-zero
coefficients followed by (zero-run, level) pairs in zigzag order —
unsigned Exp-Golomb for runs/counts, signed Exp-Golomb for levels and
motion vectors.
"""

from __future__ import annotations

import numpy as np

from ...errors import CodecError


class BitWriter:
    """Append-only bit buffer, MSB-first within each byte."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bitpos = 0  # bits already used in the last byte

    def write_bit(self, bit: int) -> None:
        if self._bitpos == 0:
            self._bytes.append(0)
        if bit:
            self._bytes[-1] |= 0x80 >> self._bitpos
        self._bitpos = (self._bitpos + 1) % 8

    def write_bits(self, value: int, width: int) -> None:
        """Write ``width`` bits of ``value``, MSB first."""
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_ue(self, value: int) -> None:
        """Unsigned Exp-Golomb."""
        if value < 0:
            raise CodecError(f"ue() argument must be non-negative: {value}")
        code = value + 1
        width = code.bit_length()
        self.write_bits(0, width - 1)  # leading zeros
        self.write_bits(code, width)

    def write_se(self, value: int) -> None:
        """Signed Exp-Golomb: 0, 1, -1, 2, -2 ... -> 0, 1, 2, 3, 4 ..."""
        mapped = 2 * value - 1 if value > 0 else -2 * value
        self.write_ue(mapped)

    @property
    def bit_length(self) -> int:
        used = len(self._bytes) * 8
        if self._bitpos:
            used -= 8 - self._bitpos
        return used

    def getvalue(self) -> bytes:
        return bytes(self._bytes)


class BitReader:
    """Sequential reader matching :class:`BitWriter`'s layout."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            raise CodecError("bitstream exhausted")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_ue(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise CodecError("malformed Exp-Golomb code")
        return ((1 << zeros) | self.read_bits(zeros)) - 1

    def read_se(self) -> int:
        mapped = self.read_ue()
        if mapped % 2:
            return (mapped + 1) // 2
        return -(mapped // 2)


def encode_coefficients(writer: BitWriter, zigzagged: np.ndarray) -> None:
    """Code one zigzag-ordered coefficient vector as run/level pairs."""
    nonzero = np.flatnonzero(zigzagged)
    writer.write_ue(len(nonzero))
    previous = -1
    for position in nonzero:
        writer.write_ue(int(position - previous - 1))  # zero run
        writer.write_se(int(zigzagged[position]))
        previous = int(position)


def decode_coefficients(reader: BitReader, length: int) -> np.ndarray:
    """Inverse of :func:`encode_coefficients`."""
    vector = np.zeros(length, dtype=np.int32)
    count = reader.read_ue()
    position = -1
    for _ in range(count):
        position += reader.read_ue() + 1
        if position >= length:
            raise CodecError("coefficient index past end of block")
        vector[position] = reader.read_se()
    return vector

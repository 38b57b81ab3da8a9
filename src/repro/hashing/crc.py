"""Cyclic redundancy checks used to tag macroblocks (paper Sec. 4.4).

Three implementations of CRC-32 (the IEEE 802.3 polynomial, identical
to ``zlib.crc32``) are provided:

* :func:`crc32_bitwise` — reference bit-at-a-time implementation, used
  only to validate the others in tests;
* :func:`crc32` — table-driven, byte-at-a-time, for scalar use;
* :func:`crc32_blocks` — numpy-vectorized over a ``(n, k)`` uint8 array
  of blocks, computing all ``n`` digests in a single gather/XOR-reduce
  over per-position tables.  This is what the simulator uses on whole
  frames.

The positional-table trick: the byte step ``c' = T[(c ^ b) & 0xFF] ^
(c >> 8)`` equals ``L(c ^ b)`` with ``L`` the zero-byte step, and ``L``
is linear over GF(2), so the final register is an XOR of independent
per-byte contributions: ``crc(b_0..b_{k-1}) = L^k(init) ^ XOR_j
L^(k-j)(b_j)``.  ``L^(k-j)`` restricted to byte inputs is a 256-entry
table, built once per block length and cached.  The tests check the
vectorized digests row by row against ``zlib.crc32`` and the scalar
:func:`crc16`.

CRC-16 (CCITT, used by the paper's CO-MACH collision extension) gets
the same treatment.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

#: Reflected IEEE 802.3 polynomial (the one zlib uses).
CRC32_POLY = 0xEDB88320
#: Reflected CRC-16/CCITT polynomial.
CRC16_POLY = 0x8408

_CRC32_INIT = 0xFFFFFFFF
_CRC16_INIT = 0xFFFF


def _build_table(poly: int, width_mask: int) -> np.ndarray:
    """Build the 256-entry lookup table for a reflected CRC."""
    table = np.zeros(256, dtype=np.uint64)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table[byte] = crc & width_mask
    return table


_CRC32_TABLE = _build_table(CRC32_POLY, 0xFFFFFFFF).astype(np.uint32)
_CRC16_TABLE = _build_table(CRC16_POLY, 0xFFFF).astype(np.uint16)


def crc32_bitwise(data: bytes) -> int:
    """Reference bit-at-a-time CRC-32 (matches ``zlib.crc32``)."""
    crc = _CRC32_INIT
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLY
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def crc32(data: bytes) -> int:
    """Table-driven CRC-32 of ``data`` (matches ``zlib.crc32``)."""
    crc = _CRC32_INIT
    table = _CRC32_TABLE
    for byte in data:
        crc = int(table[(crc ^ byte) & 0xFF]) ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc16(data: bytes) -> int:
    """Table-driven reflected CRC-16/CCITT of ``data``."""
    crc = _CRC16_INIT
    table = _CRC16_TABLE
    for byte in data:
        crc = int(table[(crc ^ byte) & 0xFF]) ^ (crc >> 8)
    return crc ^ 0xFFFF


@lru_cache(maxsize=32)
def _positional_tables(length: int, width: int) -> Tuple[np.ndarray, int]:
    """``(k, 256)`` per-position contribution tables plus the constant.

    ``tables[j][b]`` is the final-register contribution of byte value
    ``b`` at position ``j`` of a ``length``-byte message; the returned
    constant folds ``L^k(init)`` together with the final XOR.
    """
    if width == 32:
        base, init, final = _CRC32_TABLE, _CRC32_INIT, 0xFFFFFFFF
    else:
        base, init, final = _CRC16_TABLE, _CRC16_INIT, 0xFFFF
    tables = np.empty((length, 256), dtype=base.dtype)
    if length:
        tables[length - 1] = base
        for j in range(length - 2, -1, -1):
            prev = tables[j + 1]
            tables[j] = base[prev & base.dtype.type(0xFF)] ^ (
                prev >> base.dtype.type(8))
    crc = init
    for _ in range(length):
        crc = int(base[crc & 0xFF]) ^ (crc >> 8)
    tables.setflags(write=False)
    return tables, crc ^ final


def _flat_gather_index(blocks: np.ndarray) -> np.ndarray:
    """Per-byte index into a raveled ``(k, 256)`` table: ``j*256 | b``.

    Column-major, shaped ``(k, n)``, so the XOR reduction over byte
    positions runs along axis 0 as whole-row operations.
    """
    index = blocks.T.astype(np.uint16, order="C")
    index |= (np.arange(blocks.shape[1], dtype=np.uint16)
              << np.uint16(8))[:, None]
    return index


def _crc_blocks(blocks: np.ndarray, width: int,
                index: Optional[np.ndarray] = None) -> np.ndarray:
    tables, const = _positional_tables(blocks.shape[1], width)
    dtype = tables.dtype
    if blocks.shape[1] == 0:
        return np.full(blocks.shape[0], const, dtype=dtype)
    if index is None:
        index = _flat_gather_index(blocks)
    terms = tables.ravel().take(index)
    return np.bitwise_xor.reduce(terms, axis=0) ^ dtype.type(const)


def crc32_blocks(blocks: np.ndarray) -> np.ndarray:
    """CRC-32 of every row of a ``(n, k)`` uint8 array, vectorized.

    One gather over cached per-position tables plus an XOR reduction —
    no data-dependent serial register chain.
    """
    return _crc_blocks(_as_block_matrix(blocks), 32)


def crc16_blocks(blocks: np.ndarray) -> np.ndarray:
    """CRC-16 of every row of a ``(n, k)`` uint8 array, vectorized."""
    return _crc_blocks(_as_block_matrix(blocks), 16)


def crc_pair_blocks(blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(crc32, crc16)`` of every row — the write path wants both.

    Builds the shared gather index once; the two digests reuse it.
    """
    blocks = _as_block_matrix(blocks)
    index = _flat_gather_index(blocks) if blocks.shape[1] else None
    return (_crc_blocks(blocks, 32, index), _crc_blocks(blocks, 16, index))


def _as_block_matrix(blocks: np.ndarray) -> np.ndarray:
    blocks = np.asarray(blocks)
    if blocks.dtype != np.uint8:
        raise TypeError(f"blocks must be uint8, got {blocks.dtype}")
    if blocks.ndim != 2:
        raise ValueError(f"blocks must be 2-D (n, k), got shape {blocks.shape}")
    return blocks

"""Delta Colour Compression (DCC) — the paper's Sec. 6.2 comparison.

Commercial DCC (AMD Polaris, NVIDIA Pascal) is an *intra-block* scheme:
it stores each block as a base pixel plus per-pixel deltas at the
narrowest bit width that holds them, so flat and smoothly shaded blocks
shrink while noisy blocks stay raw.  MACH is *inter-block* (it reuses
whole blocks already in memory), which is why the paper can stack GAB
on top of DCC and gain further savings.

The model: a block of ``p`` RGB pixels compresses to

    1 (width header) + 3 (base pixel) + ceil((p - 1) * 3 * bits / 8)

bytes, where ``bits`` is the signed width of the largest base-relative
delta (ring arithmetic mod 256), capped at the raw size when the
"compressed" form would be bigger.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError

_HEADER_BYTES = 1
_BASE_BYTES = 3


def _signed_widths() -> np.ndarray:
    """Signed bit width of every wrapped byte delta, by its uint8 value.

    Delta ``u`` has magnitude ``min(u, 256 - u)`` on the mod-256 ring;
    its width is 0 bits for magnitude 0, else ``floor(log2 m) + 2``.
    For ``u <= 128`` that is also the width of magnitude ``u``.
    """
    magnitudes = (min(u, 256 - u) for u in range(256))
    return np.array([m.bit_length() + 1 if m else 0 for m in magnitudes],
                    dtype=np.uint8)


#: ``_WIDTHS[u]`` is the signed width of the wrapped byte delta ``u``.
_WIDTHS = _signed_widths()


def compressed_sizes(blocks: np.ndarray) -> np.ndarray:
    """Per-block DCC size in bytes for an ``(n, 3p)`` uint8 matrix."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[1] % 3 or blocks.dtype != np.uint8:
        raise GeometryError(
            f"expected (n, 3p) uint8 block matrix, got {blocks.shape} "
            f"{blocks.dtype}")
    n, k = blocks.shape
    pixels = k // 3
    bits = np.zeros(n, dtype=np.int64)
    if pixels > 1:
        # Each byte's delta from the base pixel, wrapped by uint8
        # arithmetic, then its magnitude ``min(u, -u)`` on the ring.
        # Width grows with magnitude, so the block's width is the
        # width of its largest magnitude.
        deltas = blocks[:, 3:] - np.tile(blocks[:, :3], (1, pixels - 1))
        np.minimum(deltas, -deltas, out=deltas)
        bits[:] = _WIDTHS[deltas.max(axis=1)]
    payload = ((pixels - 1) * 3 * bits + 7) // 8
    sizes = _HEADER_BYTES + _BASE_BYTES + payload
    return np.minimum(sizes, k)


def dcc_ratio(blocks: np.ndarray) -> float:
    """Whole-frame compression ratio (compressed / raw; lower is better)."""
    blocks = np.asarray(blocks)
    raw = blocks.shape[0] * blocks.shape[1]
    return float(compressed_sizes(blocks).sum()) / raw if raw else 1.0

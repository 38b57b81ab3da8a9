"""Tests for the Delta Colour Compression baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.compression import compressed_sizes, dcc_ratio
from repro.errors import GeometryError


def oracle_compressed_sizes(blocks: np.ndarray) -> np.ndarray:
    """The DCC size model in plain arithmetic: int16 deltas wrapped by
    ``%``, the signed width from ``log2``/``floor``."""
    n, k = blocks.shape
    pixels = k // 3
    bases = np.tile(blocks[:, :3], (1, pixels))
    # Signed delta on the mod-256 ring, in [-128, 127].
    deltas = ((blocks.astype(np.int16) - bases.astype(np.int16) + 128) % 256
              ) - 128
    max_abs = np.abs(deltas[:, 3:]).max(axis=1) if pixels > 1 else np.zeros(n)
    # Signed width: 0 bits for all-zero deltas, else floor(log2 m) + 2.
    bits = np.where(
        max_abs == 0, 0,
        np.floor(np.log2(np.maximum(max_abs, 1))).astype(np.int64) + 2)
    payload = ((pixels - 1) * 3 * bits + 7) // 8
    sizes = 1 + 3 + payload
    return np.minimum(sizes, k).astype(np.int64)


class TestCompressedSizes:
    def test_flat_block_compresses_hard(self):
        flat = np.tile(np.asarray([[9, 9, 9]], dtype=np.uint8), (1, 16))
        size = compressed_sizes(flat)[0]
        assert size == 4  # header + base, zero payload bits

    def test_smooth_block_compresses_partially(self):
        ramp = (np.arange(48) // 3).astype(np.uint8).reshape(1, 48)
        size = compressed_sizes(ramp)[0]
        assert 4 < size < 48

    def test_noise_block_does_not_compress(self, rng):
        noise = rng.integers(0, 256, size=(1, 48), dtype=np.uint8)
        assert compressed_sizes(noise)[0] == 48  # capped at raw

    def test_wraparound_deltas_are_small(self):
        # 254 vs 2: distance 4 on the mod-256 ring, not 252.
        wrapped = np.tile(np.asarray([[254, 254, 254]], dtype=np.uint8),
                          (1, 16))
        wrapped[0, 3:6] = 2
        # The same distance without wraparound help: 126 vs 2 (124).
        far = np.tile(np.asarray([[126, 126, 126]], dtype=np.uint8), (1, 16))
        far[0, 3:6] = 2
        assert compressed_sizes(wrapped)[0] < compressed_sizes(far)[0]
        assert compressed_sizes(wrapped)[0] < 48

    @given(arrays(np.uint8, (5, 48)))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_raw(self, blocks):
        sizes = compressed_sizes(blocks)
        assert (sizes <= 48).all()
        assert (sizes >= 4).all()

    @pytest.mark.parametrize("rows", [0, 1, 700])
    def test_every_delta_and_width_matches_oracle(self, rows):
        """Blocks 3 to 192 bytes wide, holding every wrapped byte delta
        (one per block, cycling over the byte positions), size exactly
        as the plain arithmetic says, with the same dtype."""
        rng = np.random.default_rng(rows)
        for width in range(3, 193, 3):
            blocks = rng.integers(0, 256, (rows, width), dtype=np.uint8)
            if rows > 256 and width > 3:
                # Rows 0-255 are flat blocks but for one byte holding
                # delta ``row`` from its channel's base byte; the rest
                # stay random.
                base = np.tile(blocks[:256, :3], (1, width // 3))
                blocks[:256] = base
                column = 3 + np.arange(256) % (width - 3)
                blocks[np.arange(256), column] += np.arange(256).astype(
                    np.uint8)
            got = compressed_sizes(blocks)
            want = oracle_compressed_sizes(blocks)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == (rows,)
            np.testing.assert_array_equal(got, want)

    def test_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            compressed_sizes(np.zeros((2, 47), dtype=np.uint8))
        with pytest.raises(GeometryError):
            compressed_sizes(np.zeros((2, 48), dtype=np.float32))


class TestDccRatio:
    def test_flat_frame_ratio(self):
        flat = np.tile(np.asarray([[1, 2, 3]], dtype=np.uint8), (100, 16))
        assert dcc_ratio(flat) == pytest.approx(4 / 48)

    def test_synthetic_content_is_compressible(self, video_config):
        """The generator's smooth textures must be DCC-compressible
        (real video is), while noise stays incompressible."""
        from repro.video import SyntheticVideo, workload
        frames = list(SyntheticVideo(video_config, workload("V8"), seed=2,
                                     n_frames=4))
        ratio = dcc_ratio(frames[-1].blocks)
        assert 0.3 < ratio < 0.95

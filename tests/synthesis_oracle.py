"""The frame synthesiser's scene state as it was before render-on-reroll.

``OracleSceneState`` keeps every block's (texture, base) choice and
every unique row's texture, redraws only the rows marked dirty since
its last render, and draws textures with ``Generator.choice``.
:class:`repro.video.synthesis._SceneState` renders a row when it is
re-rolled and draws from a precomputed CDF instead; both must yield the
same frames from the same random draws.  Swap it in with
:func:`oracle_synthesis`; ``full_render=True`` also marks every row
dirty at every render, the every-row render the incremental one
replaced.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
import pytest

from repro.video import synthesis
from repro.video.synthesis import (
    _COMMON,
    _NOISE,
    _UNIQUE,
    VideoProfile,
    _smooth_textures,
)


class OracleSceneState:
    """Mutable per-scene block assignment and content pools."""

    def __init__(self, rng: np.random.Generator, profile: VideoProfile,
                 n_blocks: int, block_bytes: int) -> None:
        self._rng = rng
        self._profile = profile
        self._n = n_blocks
        self._k = block_bytes
        # Filled by new_scene():
        self._classes = np.zeros(n_blocks, dtype=np.int8)
        self._texture_idx = np.zeros(n_blocks, dtype=np.int64)
        self._bases = np.zeros((n_blocks, 3), dtype=np.uint8)
        self._common_textures = np.zeros((1, block_bytes), dtype=np.uint8)
        self._canonical_bases = np.zeros((1, 3), dtype=np.uint8)
        self._flat_colors = np.zeros((1, 3), dtype=np.uint8)
        self._unique_textures = np.zeros((n_blocks, block_bytes),
                                         dtype=np.uint8)
        # The last rendered frame, and the rows re-rolled since: render()
        # redraws only those (and the noise rows).
        self._frame = np.zeros((n_blocks, block_bytes), dtype=np.uint8)
        self._dirty = np.ones(n_blocks, dtype=bool)

    # -- scene lifecycle -------------------------------------------------

    def new_scene(self) -> None:
        """Regenerate pools and reassign every block (a scene cut)."""
        rng, prof, n, k = self._rng, self._profile, self._n, self._k
        pool = prof.common_pool
        # Textures are smooth random walks: neighbouring bytes differ by
        # small steps, like real shaded surfaces, so intra-block delta
        # compression (DCC) sees realistic compressibility.
        self._common_textures = _smooth_textures(rng, pool, k, step=5)
        self._common_textures[0] = 0  # texture 0 is the flat block
        self._canonical_bases = rng.integers(
            0, 256, size=(pool, 3), dtype=np.uint8)
        self._flat_colors = rng.integers(
            0, 256, size=(prof.flat_palette, 3), dtype=np.uint8)
        self._unique_textures = _smooth_textures(rng, n, k, step=11)
        self._classes = rng.choice(
            np.array([_COMMON, _UNIQUE, _NOISE], dtype=np.int8),
            size=n,
            p=[prof.f_common, prof.f_unique, prof.f_noise],
        )
        self._reroll(np.ones(n, dtype=bool))  # marks every row dirty

    def churn(self) -> None:
        """Re-roll a ``p_update`` fraction of non-noise blocks."""
        update = self._rng.random(self._n) < self._profile.p_update
        self._reroll(update)

    def _reroll(self, mask: np.ndarray) -> None:
        """Assign fresh (texture, base) choices for the masked blocks."""
        rng, prof = self._rng, self._profile
        self._dirty |= mask
        common = mask & (self._classes == _COMMON)
        n_common = int(common.sum())
        if n_common:
            # Texture 0 (flat) gets probability f_flat; the remaining
            # textures follow a Zipf popularity (a few hot textures and
            # a long tail, like real scene content — this is what gives
            # the MACH realistic capacity pressure and the Fig. 9b
            # top-digest concentration).
            ranks = np.arange(1, prof.common_pool, dtype=np.float64)
            tail = ranks ** (-prof.zipf_s) if len(ranks) else ranks
            weights = np.empty(prof.common_pool)
            weights[0] = prof.f_flat
            if len(tail):
                weights[1:] = (1.0 - prof.f_flat) * tail / tail.sum()
            weights /= weights.sum()
            choice = rng.choice(prof.common_pool, size=n_common, p=weights)
            self._texture_idx[common] = choice
            bases = self._canonical_bases[choice].copy()
            offset = rng.random(n_common) < prof.p_offset
            bases[offset] = rng.integers(
                0, 256, size=(int(offset.sum()), 3), dtype=np.uint8)
            flat = choice == 0
            n_flat = int(flat.sum())
            if n_flat:
                palette = rng.integers(0, prof.flat_palette, size=n_flat)
                bases[flat] = self._flat_colors[palette]
            self._bases[common] = bases
        unique = mask & (self._classes == _UNIQUE)
        n_unique = int(unique.sum())
        if n_unique:
            # A re-rolled unique block gets brand-new persistent content.
            self._unique_textures[unique] = rng.integers(
                0, 256, size=(n_unique, self._k), dtype=np.uint8)

    # -- rendering ---------------------------------------------------------

    def render(self) -> np.ndarray:
        """Materialize the current frame's block matrix as a new array.

        A common or unique row changes only when it is re-rolled, so
        only the rows marked dirty since the last render are redrawn.
        Noise rows are drawn every frame, exactly as a full render draws
        them, so the RNG call sequence is that of a full render.
        """
        rng, k = self._rng, self._k
        blocks = self._frame
        common = self._dirty & (self._classes == _COMMON)
        if common.any():
            textures = self._common_textures[self._texture_idx[common]]
            bases = np.tile(self._bases[common], (1, k // 3))
            blocks[common] = textures + bases  # uint8 wraparound by design
        unique = self._dirty & (self._classes == _UNIQUE)
        if unique.any():
            blocks[unique] = self._unique_textures[unique]
        noise = self._classes == _NOISE
        n_noise = int(noise.sum())
        if n_noise:
            blocks[noise] = rng.integers(
                0, 256, size=(n_noise, k), dtype=np.uint8)
        self._dirty[:] = False
        return blocks.copy()  # the caller may mutate it


class _FullRenderOracle(OracleSceneState):
    """The oracle with every row redrawn at every render."""

    def render(self) -> np.ndarray:
        self._dirty[:] = True
        return super().render()


@contextlib.contextmanager
def oracle_synthesis(full_render: bool = False) -> Iterator[None]:
    """Play every :class:`~repro.video.SyntheticVideo` on the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_SceneState",
                      _FullRenderOracle if full_render else OracleSceneState)
        yield

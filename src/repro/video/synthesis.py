"""Synthetic video generator with controllable content similarity.

The paper's three techniques consume only (a) per-frame decode work and
(b) the exact-content / gradient-content similarity structure of the
decoded macroblocks.  Since the original 16 YouTube videos are not
available, this module synthesizes block streams whose similarity
statistics are controlled per video profile and calibrated against the
paper's measured aggregates (Fig. 2b regions, Fig. 7b census).

Content model
-------------
Every block of a frame belongs to one of three content classes:

* **common** — drawn from a small per-scene pool of textures; many
  blocks share each (texture, base) combination, producing the paper's
  *intra-frame* matches.  Texture 0 is the flat (zero-gradient) block;
  flat blocks with different colours match under gab but not mab,
  which is what makes the top gab digest dominate (Fig. 9b).
* **unique** — a per-position persistent texture: it appears once per
  frame but recurs across frames, producing *inter-frame* matches.
* **noise** — re-randomized every frame: never matches (film grain,
  water, fur).

A block's stored texture always has a zero first pixel (it *is* the
gradient block); the rendered content is ``texture + base`` with uint8
wraparound, so ``content - content[first pixel]`` exactly recovers the
texture.  Applying a random base with probability ``p_offset`` creates
content that matches under gab but not under mab.

Scenes last ``scene_len`` frames; a scene cut regenerates all pools
(a burst of no-match blocks, like a real cut).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..config import VideoConfig
from ..errors import ConfigError
from ..pcg64 import skip_outputs
from .frame import DecodedFrame, FrameType
from .gop import gop_pattern

#: Modelled encoded density (bits per *pixel*) by frame type, before the
#: per-frame complexity multiplier.  Ballpark H.264 4K rates.
_BITS_PER_PIXEL = {FrameType.I: 1.6, FrameType.P: 0.55, FrameType.B: 0.30}


@dataclass(frozen=True)
class VideoProfile:
    """Per-video content and complexity characteristics (Table 1).

    The similarity knobs (``f_common``, ``f_unique``, ``f_flat``,
    ``p_offset``) shape the Fig. 7b census; ``complexity_mean`` and
    ``complexity_sigma`` shape the Fig. 2b decode-time regions.
    """

    key: str
    name: str
    description: str
    n_frames: int  # the paper's Table 1 frame count, at full length

    f_common: float = 0.45  # fraction of blocks from the shared pool
    f_unique: float = 0.12  # fraction with per-position persistent content
    f_flat: float = 0.30  # of common blocks, fraction that are flat colour
    p_offset: float = 0.45  # P(common texture used with a random base)
    flat_palette: int = 6  # distinct flat colours per scene
    common_pool: int = 28  # textures in the shared pool
    zipf_s: float = 1.50  # popularity skew across the texture pool
    p_update: float = 0.12  # per-frame content churn of non-noise blocks
    scene_len: int = 90  # frames between scene cuts

    complexity_mean: float = 1.0  # decode-work multiplier (1.0 = average)
    complexity_sigma: float = 0.0  # extra per-video lognormal spread

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_common <= 1.0:
            raise ConfigError("f_common must be in [0, 1]")
        if not 0.0 <= self.f_unique <= 1.0 - self.f_common:
            raise ConfigError("f_common + f_unique must not exceed 1")
        if self.scene_len < 1:
            raise ConfigError("scene_len must be >= 1")
        if self.common_pool < 1 or self.flat_palette < 1:
            raise ConfigError("pools must be non-empty")
        for name in ("f_flat", "p_offset", "p_update"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ConfigError(f"{name} must be in [0, 1]")
        if not math.isfinite(self.zipf_s):
            raise ConfigError("zipf_s must be finite")

    @property
    def f_noise(self) -> float:
        return 1.0 - self.f_common - self.f_unique


# Block content classes.
_COMMON, _UNIQUE, _NOISE = 0, 1, 2


def _smooth_textures(rng: np.random.Generator, count: int, block_bytes: int,
                     step: int) -> np.ndarray:
    """Gradient textures built as byte-wise random walks.

    The first pixel is forced to zero so each texture *is* its own
    gradient block (``content = texture + base`` reconstructs exactly).
    """
    steps = rng.integers(-step, step + 1, size=(count, block_bytes),
                         dtype=np.int16)
    walk = np.cumsum(steps, axis=1).astype(np.uint8)  # mod-256 drift
    walk[:, :3] = 0
    return walk


class SyntheticVideo:
    """Iterable stream of :class:`DecodedFrame` for one profile.

    The stream is deterministic for a given (profile, config, seed).
    """

    def __init__(self, config: VideoConfig, profile: VideoProfile,
                 seed: int = 0, n_frames: Optional[int] = None,
                 complexity_sigma: float = 0.12) -> None:
        self.config = config
        self.profile = profile
        self.n_frames = profile.n_frames if n_frames is None else n_frames
        if self.n_frames < 1:
            raise ConfigError("need at least one frame")
        self._seed = seed
        self._sigma = math.hypot(complexity_sigma, profile.complexity_sigma)
        self._pattern = gop_pattern(config.gop_length,
                                    config.b_frames_per_gop)
        self._blank = False

    def __iter__(self) -> Iterator[DecodedFrame]:
        return self.frames()

    def __len__(self) -> int:
        return self.n_frames

    def materialize(self) -> "FrameList":
        """Every frame, generated once and held for any number of runs."""
        return FrameList(self.frames(), self.profile.key)

    def _without_pixels(self) -> "SyntheticVideo":
        """This stream with no pixel rendered, for a run that reads none.

        Every frame's index, type, complexity and encoded size are the
        stream's own, drawn from the same generator states; its blocks
        are one shared, read-only, all-zero view of the frame's shape.
        """
        blank = copy.copy(self)
        blank._blank = True
        return blank

    # -- generation -----------------------------------------------------

    def frames(self) -> Iterator[DecodedFrame]:
        """Generate the frame stream."""
        cfg, prof = self.config, self.profile
        rng = np.random.default_rng(self._seed)
        n = cfg.blocks_per_frame
        k = cfg.block_bytes
        scene = _BlankSceneState if self._blank else _SceneState
        state = scene(rng, prof, n, k)
        for index in range(self.n_frames):
            if index % prof.scene_len == 0:
                state.new_scene()
            else:
                state.churn()
            frame_type = self._pattern[index % cfg.gop_length]
            complexity = self._complexity(rng, frame_type)
            encoded_bits = self._encoded_bits(frame_type, complexity)
            yield DecodedFrame(
                index=index,
                frame_type=frame_type,
                blocks=state.render(),
                complexity=complexity,
                encoded_bits=encoded_bits,
            )

    def _complexity(self, rng: np.random.Generator,
                    frame_type: FrameType) -> float:
        """Per-frame decode-work multiplier (lognormal around the mean).

        Type-neutral by design: the decoder's timing model applies its
        own per-type cycle costs on top of this multiplier.
        """
        del frame_type  # complexity is orthogonal to the frame type
        spread = float(rng.lognormal(mean=0.0, sigma=self._sigma))
        return self.profile.complexity_mean * spread

    def _encoded_bits(self, frame_type: FrameType, complexity: float) -> int:
        pixels = self.config.width * self.config.height
        return int(pixels * _BITS_PER_PIXEL[frame_type] * complexity)


class FrameList(List[DecodedFrame]):
    """Decoded frames held in memory, labelled with their content's key.

    ``simulate`` plays it like any frame list and reports ``key`` as the
    run's ``profile_key``, so a run from a materialized stream equals
    the run from its profile.
    """

    def __init__(self, frames: Iterable[DecodedFrame], key: str) -> None:
        super().__init__(frames)
        self.key = key


def _texture_cdf(profile: VideoProfile) -> np.ndarray:
    """Cumulative common-texture popularity, as ``Generator.choice``
    builds it, so a search of it reproduces ``choice``'s draws.

    Texture 0 (flat) gets probability ``f_flat``; the remaining textures
    follow a Zipf popularity (a few hot textures and a long tail, like
    real scene content — this is what gives the MACH realistic capacity
    pressure and the Fig. 9b top-digest concentration).
    """
    ranks = np.arange(1, profile.common_pool, dtype=np.float64)
    tail = ranks ** (-profile.zipf_s) if len(ranks) else ranks
    weights = np.empty(profile.common_pool)
    weights[0] = profile.f_flat
    if len(tail):
        weights[1:] = (1.0 - profile.f_flat) * tail / tail.sum()
    total = weights.sum()
    if not (np.isfinite(weights).all() and total > 0):
        raise ConfigError("zipf_s and f_flat leave the common-texture "
                          "popularity undefined")
    weights /= total
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


class _SceneState:
    """Per-scene block assignment and content pools, and the frame.

    A common or unique row is rendered into the frame when it is
    re-rolled and stays until its next re-roll; noise rows are drawn at
    every render.  Every random draw (order, size, dtype) is that of a
    render that redraws every row from stored choices.
    """

    def __init__(self, rng: np.random.Generator, profile: VideoProfile,
                 n_blocks: int, block_bytes: int) -> None:
        self._rng = rng
        self._profile = profile
        self._n = n_blocks
        self._k = block_bytes
        self._texture_cdf = _texture_cdf(profile)
        # Filled by new_scene(): the pools, and each class's rows.
        self._common_textures = np.zeros((1, block_bytes), dtype=np.uint8)
        self._canonical_bases = np.zeros((1, 3), dtype=np.uint8)
        self._flat_colors = np.zeros((1, 3), dtype=np.uint8)
        self._common_rows = self._unique_rows = self._noise_rows = (
            np.zeros(0, dtype=np.int64))
        self._frame: np.ndarray = np.zeros((n_blocks, block_bytes),
                                           dtype=np.uint8)

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
        self._canonical_bases = self._bytes((pool, 3))
        self._flat_colors = self._bytes((prof.flat_palette, 3))
        # The unique rows' smooth textures: drawn, but never shown, since
        # the re-roll below gives every unique row fresh uniform bytes.
        rng.integers(-11, 12, size=(n, k), dtype=np.int16)
        classes = rng.choice(
            np.array([_COMMON, _UNIQUE, _NOISE], dtype=np.int8),
            size=n,
            p=[prof.f_common, prof.f_unique, prof.f_noise],
        )
        self._common_rows = np.flatnonzero(classes == _COMMON)
        self._unique_rows = np.flatnonzero(classes == _UNIQUE)
        self._noise_rows = np.flatnonzero(classes == _NOISE)
        self._reroll(self._common_rows, self._unique_rows)

    def churn(self) -> None:
        """Re-roll a ``p_update`` fraction of non-noise blocks."""
        update = self._rng.random(self._n) < self._profile.p_update
        self._reroll(self._common_rows[update[self._common_rows]],
                     self._unique_rows[update[self._unique_rows]])

    def _reroll(self, common: np.ndarray, unique: np.ndarray) -> None:
        """Fresh (texture, base) choices for the ``common`` rows and
        fresh content for the ``unique`` rows, rendered into the frame."""
        rng, prof, k = self._rng, self._profile, self._k
        n_common = len(common)
        if n_common:
            choice = self._texture_cdf.searchsorted(rng.random(n_common),
                                                    side="right")
            bases = self._canonical_bases[choice]
            offset = rng.random(n_common) < prof.p_offset
            bases[offset] = self._bytes((int(offset.sum()), 3))
            flat = choice == 0
            n_flat = int(flat.sum())
            if n_flat:
                palette = rng.integers(0, prof.flat_palette, size=n_flat)
                bases[flat] = self._flat_colors[palette]
            textures = self._common_textures[choice].reshape(n_common, -1, 3)
            textures += bases[:, None, :]  # uint8 wraparound by design
            self._frame[common] = textures.reshape(n_common, k)
        if len(unique):
            # A re-rolled unique block gets brand-new persistent content.
            self._frame[unique] = self._bytes((len(unique), k))

    def _bytes(self, shape: Tuple[int, int]) -> np.ndarray:
        """Uniform random bytes: a full-range ``uint8`` draw."""
        return self._rng.integers(0, 256, size=shape, dtype=np.uint8)

    # -- rendering ---------------------------------------------------------

    def render(self) -> np.ndarray:
        """Draw the noise rows and return the frame as a new array."""
        noise = self._noise_rows
        if len(noise):
            self._frame[noise] = self._bytes((len(noise), self._k))
        return self._frame.copy()  # the caller may mutate it


class _BlankSceneState(_SceneState):
    """The scene state of a run that reads no pixel: every draw of
    :class:`_SceneState`, in order, with no byte drawn or painted.

    A draw whose consumption of the generator depends on its values —
    a bounded ``integers`` (rejection sampling) or ``choice`` — or whose
    values pick what comes next (the doubles) is made as it is.  A
    full-range ``uint8`` draw takes a fixed ``ceil(bytes / 4)`` 32-bit
    outputs whatever its values, so it is skipped instead.  Every frame
    is one shared, read-only, all-zero view.
    """

    def __init__(self, rng: np.random.Generator, profile: VideoProfile,
                 n_blocks: int, block_bytes: int) -> None:
        super().__init__(rng, profile, n_blocks, block_bytes)
        self._frame = np.broadcast_to(np.uint8(0), (n_blocks, block_bytes))

    def _reroll(self, common: np.ndarray, unique: np.ndarray) -> None:
        """:meth:`_SceneState._reroll`'s draws, without the content."""
        rng, prof = self._rng, self._profile
        n_common = len(common)
        if n_common:
            choice = self._texture_cdf.searchsorted(rng.random(n_common),
                                                    side="right")
            offset = rng.random(n_common) < prof.p_offset
            self._skip_bytes(3 * int(offset.sum()))
            n_flat = int((choice == 0).sum())
            if n_flat:
                rng.integers(0, prof.flat_palette, size=n_flat)
        self._skip_bytes(len(unique) * self._k)

    def _bytes(self, shape: Tuple[int, int]) -> np.ndarray:
        """Skip a full-range ``uint8`` draw of ``shape``; zeros stand
        for its bytes, which no blank frame shows."""
        self._skip_bytes(shape[0] * shape[1])
        return np.zeros(shape, dtype=np.uint8)

    def _skip_bytes(self, count: int) -> None:
        """Skip a full-range ``uint8`` draw of ``count`` bytes."""
        if count:
            rng = self._rng
            skip_outputs(rng, rng.bit_generator.state, 0, -(-count // 4))

    def render(self) -> np.ndarray:
        """Skip the noise rows' draw; return the shared blank frame."""
        self._skip_bytes(len(self._noise_rows) * self._k)
        return self._frame

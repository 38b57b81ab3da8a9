"""Segmented video representations for trace-driven delivery.

DASH/HLS servers cut a title into fixed-duration segments and encode
each at every rung of a bitrate ladder; the client downloads one
(segment, rung) pair at a time.  This module derives such a segmented
view from the repo's existing content sources: a Table-1
:class:`~repro.video.synthesis.VideoProfile` contributes its frame
count and complexity statistics (complex content costs more bytes at
the same rung), while a bare frame count works for traces and custom
streams.

Sizes are deterministic for a given ``(source, ladder, seed)`` so the
delivery simulation is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import DEFAULT_LADDER, VideoConfig
from ..errors import ConfigError
from ..video.synthesis import VideoProfile

#: Lognormal sigma of per-segment size variation when the source gives
#: no complexity spread of its own (scene cuts, GOP phase, etc.).
_SIZE_SIGMA = 0.10


@dataclass(frozen=True)
class Segment:
    """One fixed-duration chunk of the title, at every ladder rung."""

    index: int
    duration: float  # content seconds (the tail segment may be shorter)
    n_frames: int
    sizes: Tuple[int, ...]  # encoded bytes, one per ladder rung

    def size(self, rung: int) -> int:
        return self.sizes[rung]


@dataclass(frozen=True)
class SegmentedVideo:
    """A title cut into segments against a bitrate ladder."""

    ladder: Tuple[float, ...]  # bytes/s, ascending
    segments: Tuple[Segment, ...]
    fps: float
    source_key: str = "stream"

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigError("segmented video needs at least one segment")
        if not self.ladder or any(
                b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ConfigError("ladder must be ascending and non-empty")
        if self.ladder[0] <= 0:
            raise ConfigError("ladder rates must be positive")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_frames(self) -> int:
        return sum(segment.n_frames for segment in self.segments)

    @property
    def duration(self) -> float:
        """Total content seconds."""
        return sum(segment.duration for segment in self.segments)

    @property
    def top_rung(self) -> int:
        return len(self.ladder) - 1


def segment_video(
    source: Optional[VideoProfile],
    video: VideoConfig,
    n_frames: Optional[int] = None,
    ladder: Tuple[float, ...] = DEFAULT_LADDER,
    segment_seconds: float = 1.0,
    seed: int = 0,
) -> SegmentedVideo:
    """Cut ``source`` into a :class:`SegmentedVideo`.

    Args:
        source: a :class:`VideoProfile` (its frame count and complexity
            shape the per-segment sizes), or ``None`` for a generic
            stream described only by ``n_frames``.
        video: geometry/fps of the playing stream.
        n_frames: override the source's frame count (required when
            ``source`` is ``None``).
        ladder: ascending encoded rates, bytes/s.
        segment_seconds: nominal content seconds per segment.
        seed: size-jitter seed (deterministic per ``(source, seed)``).
    """
    if segment_seconds <= 0:
        raise ConfigError("segment duration must be positive")
    if source is not None:
        count = n_frames if n_frames is not None else source.n_frames
        complexity_mean = source.complexity_mean
        sigma = math.hypot(_SIZE_SIGMA, source.complexity_sigma)
        key = source.key
    else:
        if n_frames is None:
            raise ConfigError("need n_frames when no profile is given")
        count = n_frames
        complexity_mean = 1.0
        sigma = _SIZE_SIGMA
        key = "stream"
    if count < 1:
        raise ConfigError("need at least one frame to segment")

    frames_per_segment = max(1, int(round(segment_seconds * video.fps)))
    n_segments = -(-count // frames_per_segment)
    rng = np.random.default_rng(seed ^ 0xC4A11CE)
    # One multiplier per segment, shared by every rung so rung ordering
    # is preserved segment-by-segment.
    jitter = rng.lognormal(mean=0.0, sigma=sigma, size=n_segments)
    jitter *= complexity_mean / float(np.mean(jitter))

    segments = []
    remaining = count
    for index in range(n_segments):
        seg_frames = min(frames_per_segment, remaining)
        remaining -= seg_frames
        duration = seg_frames / video.fps
        sizes = tuple(
            max(1, int(round(rate * duration * jitter[index])))
            for rate in ladder)
        segments.append(Segment(index=index, duration=duration,
                                n_frames=seg_frames, sizes=sizes))
    return SegmentedVideo(ladder=tuple(float(r) for r in ladder),
                         segments=tuple(segments), fps=video.fps,
                         source_key=key)

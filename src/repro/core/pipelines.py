"""MACH beyond playback: the paper's Sec. 6.4 extension pipelines.

The paper closes by observing that the MACH idea applies to any
frame-based producer/consumer IP pair that communicates through memory:

* the **recording** pipeline — camera frames flow through memory to the
  video encoder, which additionally re-reads the previous frame for
  motion estimation;
* the **graphics** pipeline — the GPU renders frames through memory to
  the display at 60+ fps.

This module implements that generalization: a
:class:`ProducerConsumerPipeline` runs any frame stream through the
content-caching write path and the display-caching read path, counting
the memory traffic a MACH-equipped IP pair saves versus the raw flow.
:class:`RecordingPipeline` and :class:`RenderPipeline` bind the two
concrete shapes the paper names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import GAB, SchemeConfig, SimulationConfig
from ..errors import ConfigError
from ..video.frame import DecodedFrame
from .readpath import DisplayReadEngine
from .writeback import WritebackEngine, WritebackResult


@dataclass
class PipelineTrafficReport:
    """Producer/consumer memory traffic, with and without MACH."""

    frames: int
    raw_write_bytes: int
    mach_write_bytes: int
    raw_read_lines: int
    mach_read_lines: int

    @property
    def write_savings(self) -> float:
        if not self.raw_write_bytes:
            return 0.0
        return 1.0 - self.mach_write_bytes / self.raw_write_bytes

    @property
    def read_savings(self) -> float:
        if not self.raw_read_lines:
            return 0.0
        return 1.0 - self.mach_read_lines / self.raw_read_lines

    @property
    def total_savings(self) -> float:
        """Combined producer+consumer line-traffic saving."""
        line = 64
        raw = self.raw_write_bytes / line + self.raw_read_lines
        mach = self.mach_write_bytes / line + self.mach_read_lines
        return 1.0 - mach / raw if raw else 0.0


class ProducerConsumerPipeline:
    """A frame producer and consumer joined by MACH-managed memory.

    Args:
        config: simulation configuration (geometry + MACH parameters).
        consumer_reads_per_frame: how many frame-sized scans the
            consumer performs per produced frame (1 for a display, 2
            for an encoder that also reads its motion reference).
        scheme: the MACH stack to apply (defaults to the paper's GAB).
    """

    def __init__(self, config: Optional[SimulationConfig] = None,
                 consumer_reads_per_frame: int = 1,
                 scheme: SchemeConfig = GAB) -> None:
        self.config = config or SimulationConfig()
        if consumer_reads_per_frame < 1:
            raise ConfigError("consumer must read each frame at least once")
        self.consumer_reads = consumer_reads_per_frame
        self.scheme = scheme

    def run(self, frames: Iterable[DecodedFrame]) -> PipelineTrafficReport:
        """Push ``frames`` through the pipeline and tally the traffic."""
        cfg = self.config
        video = cfg.video
        mach = cfg.with_scheme_mach(self.scheme).scaled_for(video)
        line = cfg.dram.line_bytes
        writer = WritebackEngine(video, mach, self.scheme, line)
        reader = DisplayReadEngine(cfg.display, mach, video, line)
        slot_stride = 1 << 24  # generous virtual slot spacing

        previous: Optional[WritebackResult] = None
        count = 0
        mach_write_bytes = 0
        for frame in frames:
            result = writer.process_frame(frame, frame.index * slot_stride)
            mach_write_bytes += result.bytes_written
            scans = [result]
            if self.consumer_reads >= 2 and previous is not None:
                scans.append(previous)  # the encoder's motion reference
            for target in scans:
                reader.scan(target)
            previous = result
            count += 1

        raw_lines_per_scan = -(-video.frame_bytes // line)
        raw_scans = count + (max(count - 1, 0)
                             if self.consumer_reads >= 2 else 0)
        return PipelineTrafficReport(
            frames=count,
            raw_write_bytes=count * video.frame_bytes,
            mach_write_bytes=mach_write_bytes,
            raw_read_lines=raw_scans * raw_lines_per_scan,
            mach_read_lines=reader.stats.mem_reads,
        )


class RecordingPipeline(ProducerConsumerPipeline):
    """Camera -> memory -> video encoder (Sec. 6.4).

    The encoder reads the current frame and its motion-estimation
    reference, so the consumer side weighs twice as heavily as in
    playback.
    """

    def __init__(self, config: Optional[SimulationConfig] = None,
                 scheme: SchemeConfig = GAB) -> None:
        super().__init__(config, consumer_reads_per_frame=2, scheme=scheme)


class RenderPipeline(ProducerConsumerPipeline):
    """GPU -> memory -> display (Sec. 6.4's graphics use case)."""

    def __init__(self, config: Optional[SimulationConfig] = None,
                 scheme: SchemeConfig = GAB) -> None:
        super().__init__(config, consumer_reads_per_frame=1, scheme=scheme)

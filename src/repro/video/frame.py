"""Frame datatypes shared by the synthesizer, codec, and pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class FrameType(Enum):
    """Encoded frame type; determines decode work and reference use."""

    I = "I"  # noqa: E741 - the codec's own name for intra frames
    P = "P"
    B = "B"


@dataclass
class DecodedFrame:
    """One decoded frame, in block-matrix form.

    Attributes:
        index: position in the stream (0-based).
        frame_type: I/P/B.
        blocks: ``(n_blocks, block_bytes)`` uint8 matrix in raster order.
        complexity: relative decode-work multiplier for this frame
            (1.0 = an average P frame); feeds the VD timing model.
        encoded_bits: modelled size of the *encoded* frame, which the
            VD must read from the streaming buffer before decoding.
    """

    index: int
    frame_type: FrameType
    blocks: np.ndarray
    complexity: float
    encoded_bits: int

    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def block_bytes(self) -> int:
        return int(self.blocks.shape[1])

    @property
    def decoded_bytes(self) -> int:
        return self.n_blocks * self.block_bytes

    @property
    def encoded_bytes(self) -> int:
        return (self.encoded_bits + 7) // 8

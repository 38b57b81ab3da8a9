"""Display subsystem: frame buffers, vsync controller, display cache,
and the DC-side MACH buffer."""

from .controller import DisplayController, DisplayStats
from .display_cache import (
    simulate_direct_mapped,
    simulate_direct_mapped_array,
)
from .framebuffer import FrameBufferPool, FrameBufferSlot
from .mach_buffer import MachBuffer

__all__ = [
    "DisplayController",
    "DisplayStats",
    "simulate_direct_mapped",
    "simulate_direct_mapped_array",
    "FrameBufferPool",
    "FrameBufferSlot",
    "MachBuffer",
]

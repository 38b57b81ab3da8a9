"""Frame-buffer pool.

The decoded-frame buffers between the VD and the DC.  The baseline uses
triple buffering; batching needs roughly ``batch + 2`` buffers; MACH
additionally *retains* up to ``num_machs`` displayed frames because
newer frames hold pointers into them (paper Sec. 5.1 and Fig. 12a).

Two kinds of accounting coexist:

* **address-space slots** — every live frame owns a fixed-size slot
  (full decoded frame plus metadata headroom), which gives deterministic
  physical addresses for the DRAM model;
* **footprint bytes** — what the frame actually *wrote* (compacted
  frames are smaller under MACH), which is the paper's memory-capacity
  metric.  ``peak_footprint`` backs Fig. 12a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SchedulingError
from .. import config as _config


@dataclass
class FrameBufferSlot:
    """One live frame's buffer reservation."""

    frame_index: int
    base: int
    footprint: int = 0  # bytes actually written (set after writeback)
    displayed: bool = False


class FrameBufferPool:
    """Slot allocator over a contiguous frame-buffer region.

    A frame is *live* from decode start until it has been displayed
    **and** can no longer be referenced (it has fallen out of the MACH
    retention window).  The pool refuses to admit a new frame when all
    slots are live — which is exactly the back-pressure that paces
    batched decoding.
    """

    #: Distinct DRAM-row phases a slot base can take (see below).
    PHASE_SLOTS = 16

    def __init__(self, region_base: int, slot_bytes: int, slots: int,
                 retention: int = 0, phase_span: int = 0) -> None:
        if slots < 2:
            raise SchedulingError("need at least two frame buffers")
        self.region_base = region_base
        self.slot_bytes = slot_bytes
        self.slots = slots
        self.retention = retention
        # Buffers in a real system land at allocator-dependent physical
        # addresses, so the *bank phase* between any two buffers is
        # effectively arbitrary.  Give each slot a deterministic
        # pseudo-random row offset (and pad the stride accordingly) so
        # that concurrent sequential sweeps over two buffers are not
        # systematically bank-aligned.
        self.phase_span = phase_span
        self._stride = slot_bytes + phase_span * self.PHASE_SLOTS
        self._live: Dict[int, FrameBufferSlot] = {}
        self._displayed_upto = -1
        self.peak_live_slots = 0
        self.peak_footprint = 0

    def _slot_base(self, frame_index: int) -> int:
        slot = frame_index % self.slots
        phase = ((slot * 0x9E3779B9) >> 8) % self.PHASE_SLOTS
        return self.region_base + slot * self._stride + phase * self.phase_span

    # -- admission --------------------------------------------------------

    def can_admit(self) -> bool:
        return len(self._live) < self.slots

    def admit(self, frame_index: int) -> FrameBufferSlot:
        """Reserve a slot for ``frame_index`` (decode is about to start)."""
        if not self.can_admit():
            raise SchedulingError(
                f"frame buffer pool full ({self.slots} slots) "
                f"admitting frame {frame_index}")
        if frame_index in self._live:
            raise SchedulingError(f"frame {frame_index} already admitted")
        slot = FrameBufferSlot(frame_index=frame_index,
                               base=self._slot_base(frame_index))
        self._live[frame_index] = slot
        self.peak_live_slots = max(self.peak_live_slots, len(self._live))
        return slot

    def set_footprint(self, frame_index: int, footprint: int) -> None:
        """Record how many bytes the frame's writeback actually used."""
        self._live[frame_index].footprint = footprint
        self.peak_footprint = max(self.peak_footprint, self.live_footprint)

    # -- lifecycle ----------------------------------------------------------

    def slot(self, frame_index: int) -> FrameBufferSlot:
        try:
            return self._live[frame_index]
        except KeyError:
            raise SchedulingError(
                f"frame {frame_index} is not live in the pool") from None

    def is_live(self, frame_index: int) -> bool:
        return frame_index in self._live

    def mark_displayed(self, frame_index: int) -> None:
        """Display consumed the frame; retire everything now unreachable.

        A frame is retired once displayed and older than the newest
        displayed frame by at least ``retention`` (no MACH pointer can
        reach it any more).
        """
        if frame_index in self._live:
            self._live[frame_index].displayed = True
        self._displayed_upto = max(self._displayed_upto, frame_index)
        horizon = self._displayed_upto - self.retention
        for index in [i for i in self._live if i <= horizon
                      and self._live[i].displayed]:
            del self._live[index]

    # -- metrics ------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def live_indices(self) -> list:
        """Frame indices currently holding a slot, oldest first."""
        return sorted(self._live)

    @property
    def live_footprint(self) -> int:
        return sum(slot.footprint for slot in self._live.values())

    def peak_footprint_native(self, video: "_config.VideoConfig") -> float:
        """Peak footprint rescaled to 4K bytes (for MB reports)."""
        return self.peak_footprint * video.scale_to_native

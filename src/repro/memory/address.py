"""Physical address mapping (RoRaBaCoCh) and the region map.

The paper's memory controller interleaves addresses as Row : Rank :
Bank : Column : Channel, MSB to LSB (Table 2).  With the channel in the
lowest bits above the line offset, consecutive cache lines alternate
channels; with columns below the bank bits, a sequential stream sweeps
an entire row before moving to the next bank — the streaming-friendly
layout whose row locality Race-to-Sleep exploits (Fig. 5a).

:class:`RegionMap` carves the physical space into the buffers the video
pipeline uses (encoded stream, frame-buffer pool, MACH dumps, other
agents) so that traffic generators can produce concrete line addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..config import DramConfig
from ..errors import MemoryModelError


def _log2(value: int, name: str) -> int:
    if value <= 0 or value & (value - 1):
        raise MemoryModelError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


class AddressMapper:
    """Vectorized byte-address -> (global bank, row) translation."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._line_bits = _log2(config.line_bytes, "line_bytes")
        self._channel_bits = _log2(config.channels, "channels")
        self._column_bits = _log2(config.lines_per_row, "lines_per_row")
        self._bank_bits = _log2(config.banks_per_rank, "banks_per_rank")
        self._rank_bits = _log2(config.ranks_per_channel, "ranks_per_channel")

    def map_lines(self, addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map byte addresses to (global_bank, row) arrays.

        The global bank id folds channel, rank, and bank into one
        integer in ``[0, total_banks)`` so downstream code can treat
        banks uniformly.
        """
        rows = np.array(addresses, dtype=np.int64)
        return self.map_in_place(rows), rows

    def map_in_place(self, addresses: np.ndarray) -> np.ndarray:
        """Turn an int64 address array into its rows; return the banks.

        The replay maps a whole run at once, so it lends the addresses
        as the working array instead of paying for a copy.
        """
        # The fields are powers of two, so the global bank
        # ``(rank * channels + channel) * banks_per_rank + bank`` is the
        # bit string rank|channel|bank.  Each field is cut out into a
        # narrow scratch array; only the bank array is full width.
        lines = addresses
        lines >>= self._line_bits
        global_bank = lines & (self.config.channels - 1)  # the channel
        global_bank <<= self._bank_bits
        field = np.empty(len(lines),
                         np.min_scalar_type(self.config.total_banks - 1))
        # Column bits do not change the bank.
        lines >>= self._channel_bits + self._column_bits
        np.bitwise_and(lines, self.config.banks_per_rank - 1, out=field,
                       casting="unsafe")
        global_bank |= field
        lines >>= self._bank_bits
        if self._rank_bits:
            np.bitwise_and(lines, self.config.ranks_per_channel - 1,
                           out=field, casting="unsafe")
            field <<= self._channel_bits + self._bank_bits
            global_bank |= field
            lines >>= self._rank_bits  # now the row
        return global_bank

    def map_line(self, address: int) -> Tuple[int, int]:
        """Scalar convenience wrapper around :meth:`map_lines`."""
        banks, rows = self.map_lines(np.asarray([address], dtype=np.int64))
        return int(banks[0]), int(rows[0])


@dataclass(frozen=True)
class Region:
    """A named, contiguous chunk of physical address space."""

    name: str
    base: int
    size: int

    def address(self, offset: int) -> int:
        if not 0 <= offset < self.size:
            raise MemoryModelError(
                f"offset {offset:#x} outside region {self.name!r} "
                f"of size {self.size:#x}")
        return self.base + offset

    @property
    def end(self) -> int:
        return self.base + self.size


class RegionMap:
    """The video pipeline's memory layout.

    Regions are placed back to back starting at zero, padded to row
    boundaries so that different agents never share a DRAM row (they do
    still share *banks*, which is where interleaving thrash comes from).
    """

    def __init__(self, config: DramConfig) -> None:
        self._config = config
        self._regions: Dict[str, Region] = {}
        self._cursor = 0

    def add(self, name: str, size: int) -> Region:
        if name in self._regions:
            raise MemoryModelError(f"region {name!r} already defined")
        row = self._config.row_bytes * self._config.channels
        padded = (size + row - 1) // row * row
        region = Region(name, self._cursor, padded)
        self._regions[name] = region
        self._cursor += padded
        return region

    def __getitem__(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryModelError(f"unknown region {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._regions

"""LPDDR3 memory subsystem: address mapping, row-buffer dynamics, and
energy accounting."""

from .address import AddressMapper, Region, RegionMap
from .controller import AccessStats, MemoryController
from .energy import MemoryEnergy, memory_energy
from .lpddr3 import burst_duration, peak_bandwidth

__all__ = [
    "AddressMapper",
    "Region",
    "RegionMap",
    "AccessStats",
    "MemoryController",
    "MemoryEnergy",
    "memory_energy",
    "burst_duration",
    "peak_bandwidth",
]

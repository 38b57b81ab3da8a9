"""Generic SRAM cache models shared by the VD cache, MACH, and the
display cache."""

from .base import AccessResult, CacheStats
from .directmapped import DirectMappedCache
from .setassoc import SetAssociativeCache

__all__ = [
    "AccessResult",
    "CacheStats",
    "DirectMappedCache",
    "SetAssociativeCache",
]

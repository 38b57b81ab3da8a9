"""Derived LPDDR3 timing quantities.

The raw device parameters live in :class:`repro.config.DramConfig`;
this module computes the handful of derived numbers the simulator and
its tests need.
"""

from __future__ import annotations

from ..config import DramConfig


def peak_bandwidth(config: DramConfig) -> float:
    """Peak transfer rate in bytes/second across all channels.

    LPDDR3 is DDR: two transfers per I/O clock on a 32-bit (4-byte)
    channel interface.
    """
    transfers_per_second = 2.0 * config.io_freq
    return transfers_per_second * 4.0 * config.channels


def burst_duration(config: DramConfig) -> float:
    """Seconds one 64-byte burst occupies a channel's data bus."""
    bytes_per_second = 2.0 * config.io_freq * 4.0
    return config.line_bytes / bytes_per_second

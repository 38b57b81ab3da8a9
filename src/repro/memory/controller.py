"""Vectorized memory controller.

Consumes timestamped line-granular accesses from all agents (VD writes
and reads, DC reads, background masters), merges them in time, and
plays them against the per-bank open-row-with-timeout model to count
activations and bursts.  Bank state persists across calls, so the
pipeline can feed one window (e.g. one frame interval) at a time.

The whole computation is numpy: accesses are lex-sorted by (bank,
time); within each bank's run an access hits iff the previous access in
that bank touched the same row within the timeout.  Only the first
access of each bank run consults the carried-over bank state — one
gather and one scatter over SoA per-bank arrays.  Equivalence with the scalar
:class:`~repro.memory.rowbuffer.RowBufferModel` is asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..config import DramConfig
from ..errors import MemoryModelError
from .address import AddressMapper


@dataclass
class AccessStats:
    """Aggregate DRAM activity counters."""

    activations: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    by_agent: Dict[str, int] = field(default_factory=dict)
    acts_by_agent: Dict[str, int] = field(default_factory=dict)

    @property
    def bursts(self) -> int:
        return self.read_bursts + self.write_bursts

    @property
    def row_hit_rate(self) -> float:
        if not self.bursts:
            return 0.0
        return 1.0 - self.activations / self.bursts

    def merge(self, other: "AccessStats") -> "AccessStats":
        merged_agents = dict(self.by_agent)
        for agent, count in other.by_agent.items():
            merged_agents[agent] = merged_agents.get(agent, 0) + count
        merged_acts = dict(self.acts_by_agent)
        for agent, count in other.acts_by_agent.items():
            merged_acts[agent] = merged_acts.get(agent, 0) + count
        return AccessStats(
            activations=self.activations + other.activations,
            read_bursts=self.read_bursts + other.read_bursts,
            write_bursts=self.write_bursts + other.write_bursts,
            by_agent=merged_agents,
            acts_by_agent=merged_acts,
        )


class MemoryController:
    """Stateful controller accumulating :class:`AccessStats`."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.mapper = AddressMapper(config)
        self.stats = AccessStats()
        # Per-bank state as SoA arrays (open row, last-touch time) so
        # window boundaries are one gather + one scatter, not a Python
        # loop of :class:`BankState` calls.
        self._open_rows = np.full(config.total_banks, -1, dtype=np.int64)
        self._last_access = np.full(
            config.total_banks, -np.inf, dtype=np.float64)

    def process_window(
        self,
        times: np.ndarray,
        addresses: np.ndarray,
        is_write: np.ndarray,
        agents: Dict[str, np.ndarray] | None = None,
    ) -> int:
        """Process one time window of accesses; returns activations added.

        Args:
            times: seconds, one per access (any order).
            addresses: byte addresses, line-aligned not required.
            is_write: boolean per access.
            agents: optional {agent name -> boolean mask} used only for
                per-agent burst attribution in the stats.
        """
        times = np.asarray(times, dtype=np.float64)
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if not (len(times) == len(addresses) == len(is_write)):
            raise MemoryModelError("access arrays must have equal length")
        if len(times) == 0:
            return 0

        banks, rows = self.mapper.map_lines(addresses)
        if self.config.scheduler_quantum > 0:
            # FR-FCFS batching: within one scheduling quantum on one
            # bank, row hits are served together (row-hit-first).  The
            # three integer keys pack into one int64 when their ranges
            # allow (they always do at simulator scale), halving the
            # lexsort passes over the window.
            quanta = (times / self.config.scheduler_quantum).astype(np.int64)
            quanta_span = int(quanta.max()) + 1
            row_span = int(rows.max()) + 1
            if self.config.total_banks * quanta_span * row_span < (1 << 62):
                key = banks * quanta_span
                key += quanta
                del quanta
                key *= row_span
                key += rows
                order = np.lexsort((times, key))
                del key
            else:
                order = np.lexsort((times, rows, quanta, banks))
                del quanta
        else:
            order = np.lexsort((times, banks))
        # The window is replayed in bank order.  Each full-length array
        # is gathered into that order only when it is next needed and
        # dropped once used, so a long window holds a few at a time.
        sorted_banks = banks[order]
        del banks
        hits = np.empty(len(order), dtype=bool)  # first: same bank as before
        hits[0] = False
        np.equal(sorted_banks[1:], sorted_banks[:-1], out=hits[1:])
        # Run boundaries consult the persistent bank state: after the
        # sort each bank is one contiguous run, so the starts gather
        # and the ends scatter touch every bank at most once.
        run_starts = np.flatnonzero(~hits)
        run_ends = np.append(run_starts[1:] - 1, len(order) - 1)
        start_banks = sorted_banks[run_starts]
        end_banks = sorted_banks[run_ends]
        del sorted_banks

        sorted_rows = rows[order]
        del rows
        hits[1:] &= sorted_rows[1:] == sorted_rows[:-1]
        start_rows = sorted_rows[run_starts]
        end_rows = sorted_rows[run_ends]
        del sorted_rows

        sorted_times = times[order]
        hits[1:] &= (sorted_times[1:] - sorted_times[:-1]
                     <= self.config.row_max_open)
        start_times = sorted_times[run_starts]
        end_times = sorted_times[run_ends]
        del sorted_times

        hits[run_starts] = (
            (start_rows == self._open_rows[start_banks])
            & (start_times - self._last_access[start_banks]
               <= self.config.row_max_open))
        self._open_rows[end_banks] = end_rows
        self._last_access[end_banks] = end_times

        activations = int((~hits).sum())
        self.stats.activations += activations
        writes = int(is_write.sum())
        self.stats.write_bursts += writes
        self.stats.read_bursts += len(times) - writes
        if agents:
            # Attribute each activation to the agent whose access
            # triggered it (un-sort the hit mask back to arrival order).
            acts_in_order = np.empty(len(order), dtype=bool)
            acts_in_order[order] = ~hits
            for name, mask in agents.items():
                mask = np.asarray(mask, dtype=bool)
                self.stats.by_agent[name] = (
                    self.stats.by_agent.get(name, 0) + int(mask.sum()))
                self.stats.acts_by_agent[name] = (
                    self.stats.acts_by_agent.get(name, 0)
                    + int(acts_in_order[mask].sum()))
        return activations

    def reset(self) -> None:
        self.stats = AccessStats()
        self._open_rows.fill(-1)
        self._last_access.fill(-np.inf)

"""Vectorized memory controller.

Consumes timestamped line-granular accesses from all agents (VD writes
and reads, DC reads, background masters), merges them in time, and
plays them against the per-bank open-row-with-timeout model to count
activations and bursts.  Bank state persists across calls, so the
pipeline can feed one window (e.g. one frame interval) at a time.

The whole computation is numpy: accesses are sorted by bank (with
FR-FCFS batching, then by quantum and row) and time; within each bank's
run an access hits iff the previous access in
that bank touched the same row within the timeout.  Only the first
access of each bank run consults the carried-over bank state — one
gather and one scatter over SoA per-bank arrays.  Equivalence with the scalar
:class:`~repro.memory.rowbuffer.RowBufferModel` is asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

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
        agents: Optional[Tuple[Sequence[str], np.ndarray]] = None,
    ) -> int:
        """Process one time window of accesses; returns activations added.

        Args:
            times: seconds, one per access (any order).
            addresses: byte addresses, line-aligned not required.
            is_write: boolean per access.
            agents: optional ``(names, codes)``: access ``i`` came from
                agent ``names[codes[i]]`` (uint8 codes).  Used only for
                per-agent burst and activation attribution in the stats.
        """
        times = np.asarray(times, dtype=np.float64)
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if not (len(times) == len(addresses) == len(is_write)):
            raise MemoryModelError("access arrays must have equal length")
        if len(times) == 0:
            return 0

        order, sorted_banks, sorted_rows = self._schedule(times, addresses)
        # The window is replayed in bank order; each full-length array
        # is dropped once used, so a long window holds a few at a time.
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

        activations = len(hits) - int(np.count_nonzero(hits))
        self.stats.activations += activations
        writes = int(np.count_nonzero(is_write))
        self.stats.write_bursts += writes
        self.stats.read_bursts += len(times) - writes
        if agents is not None:
            # Attribute each activation to the agent whose access
            # triggered it: one bincount of (code, hit) pairs counts
            # every agent's activating (even bin) and hitting accesses.
            names, codes = agents
            codes = np.asarray(codes, dtype=np.uint8)
            tally = np.left_shift(codes[order], 1, dtype=np.uint16)
            tally |= hits
            counts = np.bincount(tally, minlength=2 * len(names))
            for name, (acts, row_hits) in zip(
                    names, counts.reshape(-1, 2).tolist()):
                self.stats.by_agent[name] = (
                    self.stats.by_agent.get(name, 0) + acts + row_hits)
                self.stats.acts_by_agent[name] = (
                    self.stats.acts_by_agent.get(name, 0) + acts)
        return activations

    def _schedule(self, times: np.ndarray, addresses: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The replay order, and the bank and row of each access in it.

        Accesses are served bank by bank and, with FR-FCFS batching,
        within one scheduling quantum on one bank the row hits together
        (row-hit-first): the order sorts by (bank, quantum, row, time),
        or by (bank, time) without a quantum.  Ties keep arrival order,
        which decides the access of a tie that activates.
        """
        banks, rows = self.mapper.map_lines(addresses)
        quantum = self.config.scheduler_quantum
        if quantum <= 0:
            order = np.lexsort((times, banks))
            return order, banks[order], rows[order]
        quanta = np.empty(len(times), dtype=np.int64)
        np.divide(times, quantum, out=quanta, casting="unsafe")  # truncates
        row_bits = int(rows.max()).bit_length()
        quanta_bits = int(quanta.max()).bit_length()
        bank_bits = (self.config.total_banks - 1).bit_length()
        rank_bits = len(times).bit_length()
        if (bank_bits + quanta_bits + row_bits + rank_bits > 62
                or int(quanta.min()) < 0):
            order = np.lexsort((times, rows, quanta, banks))
            return order, banks[order], rows[order]
        # One int64 sort: (bank, quantum, row) packed above each
        # access's rank in a stable time sort, so equal keys sort by
        # time and then by arrival.  The packed key is unique, so any
        # sort gives this order, and the bank and row decode from it.
        key = banks
        key <<= quanta_bits
        key |= quanta
        del quanta
        key <<= row_bits
        key |= rows
        del banks, rows
        by_time = np.argsort(times, kind="stable")
        packed = key[by_time]
        del key
        packed <<= rank_bits
        packed |= np.arange(len(times))
        packed.sort()
        rank = packed & ((1 << rank_bits) - 1)
        order = by_time[rank]
        del by_time, rank
        packed >>= rank_bits
        sorted_rows = packed & ((1 << row_bits) - 1)
        packed >>= quanta_bits + row_bits
        return order, packed, sorted_rows

    def reset(self) -> None:
        self.stats = AccessStats()
        self._open_rows.fill(-1)
        self._last_access.fill(-np.inf)

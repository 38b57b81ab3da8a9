"""Vectorized memory controller.

Consumes timestamped line-granular accesses from all agents (VD writes
and reads, DC reads, background masters), merges them in time, and
plays them against the per-bank open-row-with-timeout model to count
activations and bursts.  Bank state persists across calls, so the
pipeline feeds a run one window of whole scheduling quanta at a time.

The whole computation is numpy: accesses are sorted by bank (with
FR-FCFS batching, then by quantum and row) and time; within each bank's
run an access hits iff the previous access in
that bank touched the same row within the timeout.  Only the first
access of each bank run consults the carried-over bank state — one
gather and one scatter over SoA per-bank arrays.  Tests hold it equal,
access by access, to a scalar per-bank state machine in
``tests/mach_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import DramConfig
from ..errors import MemoryModelError
from .address import AddressMapper

#: Accesses per slice of the replay's in-place index gather.
_GATHER_SLICE = 1 << 16


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


class MemoryController:
    """Stateful controller accumulating :class:`AccessStats`."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.mapper = AddressMapper(config)
        self.stats = AccessStats()
        # Per-bank state as SoA arrays (open row, last-touch time) so
        # window boundaries are one gather + one scatter, not a Python
        # loop over banks.
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

        The replay owns its inputs: ``addresses`` and ``is_write`` are
        its working buffers when they already are writable int64 and
        bool arrays, so they hold other values after the call.  A
        caller that reads one of them afterwards passes a copy.
        ``times`` and the agent codes are only read.

        Args:
            times: seconds, one per access (any order).
            addresses: byte addresses, line-aligned not required.
            is_write: boolean per access.
            agents: optional ``(names, codes)``: access ``i`` came from
                agent ``names[codes[i]]`` (uint8 codes).  Used only for
                per-agent burst and activation attribution in the stats.
        """
        times = np.asarray(times, dtype=np.float64)
        addresses = np.require(addresses, np.int64, "W")
        is_write = np.require(is_write, bool, "W")
        if not (len(times) == len(addresses) == len(is_write)):
            raise MemoryModelError("access arrays must have equal length")
        if len(times) == 0:
            return 0
        writes = int(np.count_nonzero(is_write))

        order, sorted_banks, sorted_rows = self._schedule(times, addresses)
        # The window is replayed in bank order; each full-length array
        # is dropped once used, so a long window holds a few at a time.
        hits = is_write  # counted: its buffer holds the hit flags now
        del is_write
        hits[0] = False  # first: same bank as before
        np.equal(sorted_banks[1:], sorted_banks[:-1], out=hits[1:])
        # Run boundaries consult the persistent bank state: after the
        # sort each bank is one contiguous run, so the starts gather
        # and the ends scatter touch every bank at most once.
        run_starts = np.flatnonzero(~hits)
        run_ends = np.append(run_starts[1:] - 1, len(hits) - 1)
        start_banks = sorted_banks[run_starts]
        end_banks = sorted_banks[run_ends]
        del sorted_banks

        hits[1:] &= sorted_rows[1:] == sorted_rows[:-1]
        start_rows = sorted_rows[run_starts]
        end_rows = sorted_rows[run_ends]
        del sorted_rows

        sorted_times = times[order]
        if agents is not None:
            names, codes = agents
            codes = np.asarray(codes, dtype=np.uint8)[order]
        del order
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
        self.stats.write_bursts += writes
        self.stats.read_bursts += len(times) - writes
        if agents is not None:
            # Attribute each activation to the agent whose access
            # triggered it: one bincount of (code, hit) pairs counts
            # every agent's activating (even bin) and hitting accesses.
            tally = np.left_shift(codes, 1, dtype=np.uint16)
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
        which decides the access of a tie that activates.  ``addresses``
        becomes the rows and then, on the packed path, the sort key.
        """
        banks = self.mapper.map_in_place(addresses)
        rows = addresses
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
        by_time = np.argsort(times, kind="stable")
        # Gathered into the rows' buffer, which the key has consumed
        # (the indices are in range; "clip" writes into ``out``
        # directly, where the default mode fills a copy first).
        packed = np.take(key, by_time, out=rows, mode="clip")
        del banks, key, rows
        packed <<= rank_bits
        packed |= np.arange(len(times))
        packed.sort()
        # The order is ``by_time[rank]``, gathered over the rank in
        # place a slice at a time: no third full-length index array.
        order = packed & ((1 << rank_bits) - 1)
        for lo in range(0, len(order), _GATHER_SLICE):
            rank = order[lo:lo + _GATHER_SLICE]
            rank[:] = by_time[rank]
        del by_time
        packed >>= rank_bits
        sorted_rows = packed & ((1 << row_bits) - 1)
        packed >>= quanta_bits + row_bits
        return order, packed, sorted_rows

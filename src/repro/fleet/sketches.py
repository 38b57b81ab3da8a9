"""Deterministic, mergeable online aggregates for fleet-scale runs.

A fleet run streams millions of per-session metric values through
bounded-memory summaries instead of keeping a list of results.  Every
summary here obeys one contract, which is what makes sharded execution
trustworthy:

    merging partials is **exact** — associative, commutative, and
    bit-identical to processing the whole stream in one piece.

Floating-point addition is none of those things, so the summaries never
accumulate floats across chunk boundaries:

* :class:`StreamingMoments` quantizes each value to an integer grid
  (``quantum`` units) and keeps integer ``count / sum / sum-of-squares /
  min / max``.  Python integers are arbitrary precision, and integer
  addition is exactly associative, so any shard partition folds to the
  same state.  The cost is a bounded quantization error (half a
  ``quantum``) on the reported mean/variance — stated, not hidden.
* :class:`HistogramSketch` is a log-spaced histogram with integer
  counts; merges add counts.  Quantiles carry a bounded *relative*
  error of one bin width (``10 ** (1 / bins_per_decade)``).
* :class:`ReservoirSample` keeps the ``k`` stream elements with the
  smallest splitmix64 hash priorities.  The kept set is a pure
  function of the element *identities* (uid), not of arrival order, so
  offering in any order or merging any partition yields the same
  sample.

The hash helpers mirror :mod:`repro.faults`: stateless splitmix64
mixing of ``(seed, site, index)`` coordinates, so no stateful RNG ever
threads through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import FleetError

_MASK64 = (1 << 64) - 1
#: 2**-53 — maps the top 53 bits of a hash to a uniform in [0, 1).
_INV_2_53 = 1.0 / (1 << 53)

#: Default quantization step for :class:`StreamingMoments` — one
#: milli-unit (1 mJ for energies, 1 ms for durations).  Values are
#: clipped to ``quantum * _QCLIP`` (~2.1e6 canonical units), far above
#: any physical per-session energy or stall time.
DEFAULT_QUANTUM = 1e-3
_QCLIP = 2 ** 31 - 1
_LO32 = (1 << 32) - 1

#: Internal slice length for exact integer reductions.  Every quantized
#: value has ``|q| <= 2**31``, so ``q**2 < 2**62`` fits int64 and is
#: summed as a high and a low 32-bit half.  :func:`run_sums` reduces runs
#: of at most 8,192 values (a fleet chunk's cohort: ``SESSION_CHUNK`` in
#: :mod:`repro.fleet.engine`; a slice of this length in
#: :meth:`StreamingMoments.add_array`), so every partial sum -- ``sum(q)``
#: < 2**44, the high half < 2**43, the low half < 2**45 -- stays far
#: inside int64 and is exact.
_REDUCE_SLICE = 4096


def _splitmix64(x: int) -> int:
    """One splitmix64 finalization round (Steele et al.)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_u64_array(seed: int, site: int,
                   indices: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 of ``(seed, site, index)`` -> uint64.

    Pure and order-free: element ``i`` depends only on ``indices[i]``,
    never on array layout, so chunked and monolithic evaluation agree
    bit-for-bit.
    """
    x = np.array(indices, dtype=np.uint64)
    x ^= np.uint64(_splitmix64((seed ^ (site << 32)) & _MASK64))
    x += np.uint64(0x9E3779B97F4A7C15)
    shifted = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=shifted)
    x ^= shifted
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def hash_u01_array(seed: int, site: int,
                   indices: np.ndarray) -> np.ndarray:
    """Vectorized uniform in [0, 1) from hashed coordinates."""
    bits = hash_u64_array(seed, site, indices)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= _INV_2_53
    return u


def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """``values`` snapped to the ``quantum`` grid as int64.

    Values beyond the grid (including +-inf) clip to ``+-_QCLIP``; NaN
    has no grid point and raises :class:`FleetError`.
    """
    scaled = np.rint(np.asarray(values, dtype=np.float64) / quantum)
    if np.isnan(scaled).any():
        raise FleetError("cannot quantize NaN")
    return np.clip(scaled, -_QCLIP, _QCLIP).astype(np.int64)


class RunSums(NamedTuple):
    """Exact integer reductions of quantized values, one entry per run."""

    q_sum: np.ndarray
    sq_hi: np.ndarray  # sum of (q*q) >> 32
    sq_lo: np.ndarray  # sum of (q*q) & (2**32 - 1)
    q_min: np.ndarray
    q_max: np.ndarray


def run_sums(q: np.ndarray, starts: np.ndarray) -> RunSums:
    """Reduce the int64 array ``q`` over the runs that begin at
    ``starts`` (strictly ascending, so no run is empty; the last run
    ends with the array).  Runs hold at most 8,192 values, which keeps
    every sum exact (see ``_REDUCE_SLICE``)."""
    sq = q * q
    return RunSums(np.add.reduceat(q, starts),
                   np.add.reduceat(sq >> 32, starts),
                   np.add.reduceat(sq & _LO32, starts),
                   np.minimum.reduceat(q, starts),
                   np.maximum.reduceat(q, starts))


@dataclass
class StreamingMoments:
    """Exact-integer streaming mean/variance/min/max.

    Values are snapped to a ``quantum`` grid on entry; all state is
    integer from then on, so :meth:`merge` is exactly associative and
    commutative and a sharded fold is bit-identical to a serial one.
    """

    quantum: float = DEFAULT_QUANTUM
    count: int = 0
    q_sum: int = 0
    q_sum_sq: int = 0
    q_min: Optional[int] = None
    q_max: Optional[int] = None

    def add_array(self, values: np.ndarray) -> None:
        """Fold a batch of values (any shape) into the summary."""
        q = quantize(np.ravel(values), self.quantum)
        if q.size == 0:
            return
        sums = run_sums(q, np.arange(0, q.size, _REDUCE_SLICE))
        self.add_sums(q.size, sum(sums.q_sum.tolist()),
                      sum(sums.sq_hi.tolist()), sum(sums.sq_lo.tolist()),
                      int(sums.q_min.min()), int(sums.q_max.max()))

    def add_sums(self, count: int, q_sum: int, sq_hi: int, sq_lo: int,
                 q_min: int, q_max: int) -> None:
        """Fold ``count`` (> 0) values already reduced on this grid
        (see :func:`run_sums`) into the summary."""
        self.count += count
        self.q_sum += q_sum
        self.q_sum_sq += (sq_hi << 32) + sq_lo
        self.q_min = q_min if self.q_min is None else min(self.q_min, q_min)
        self.q_max = q_max if self.q_max is None else max(self.q_max, q_max)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Exact merge (integer addition — any fold tree agrees)."""
        if self.quantum != other.quantum:
            raise FleetError("cannot merge moments with different quanta")

        def _opt(op: Callable[[int, int], int], a: Optional[int],
                 b: Optional[int]) -> Optional[int]:
            if a is None:
                return b
            if b is None:
                return a
            return op(a, b)

        return StreamingMoments(
            quantum=self.quantum,
            count=self.count + other.count,
            q_sum=self.q_sum + other.q_sum,
            q_sum_sq=self.q_sum_sq + other.q_sum_sq,
            q_min=_opt(min, self.q_min, other.q_min),
            q_max=_opt(max, self.q_max, other.q_max),
        )

    @property
    def mean(self) -> float:
        """Mean in canonical units (0.0 for an empty summary)."""
        if not self.count:
            return 0.0
        return self.quantum * self.q_sum / self.count

    @property
    def variance(self) -> float:
        """Population variance in canonical units squared."""
        if not self.count:
            return 0.0
        mean_q = self.q_sum / self.count
        var_q = self.q_sum_sq / self.count - mean_q * mean_q
        return max(0.0, var_q) * self.quantum * self.quantum

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def minimum(self) -> float:
        return 0.0 if self.q_min is None else self.quantum * self.q_min

    @property
    def maximum(self) -> float:
        return 0.0 if self.q_max is None else self.quantum * self.q_max

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form (Python ints are exact in JSON)."""
        return {
            "quantum": self.quantum,
            "count": self.count,
            "q_sum": self.q_sum,
            "q_sum_sq": self.q_sum_sq,
            "q_min": self.q_min,
            "q_max": self.q_max,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "StreamingMoments":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            quantum=float(data["quantum"]),  # type: ignore[arg-type]
            count=int(data["count"]),  # type: ignore[arg-type]
            q_sum=int(data["q_sum"]),  # type: ignore[arg-type]
            q_sum_sq=int(data["q_sum_sq"]),  # type: ignore[arg-type]
            q_min=(None if data["q_min"] is None
                   else int(data["q_min"])),  # type: ignore[arg-type]
            q_max=(None if data["q_max"] is None
                   else int(data["q_max"])),  # type: ignore[arg-type]
        )


@dataclass
class HistogramSketch:
    """Log-spaced histogram with exact integer merges.

    Bins cover ``[10**lo_exp, 10**hi_exp)`` with ``bins_per_decade``
    geometric bins per decade; values below the range (including zero
    and negatives) land in an underflow bin, values above in an
    overflow bin.  Quantile estimates return the geometric midpoint of
    the selected bin, so their relative error is bounded by half a bin
    ratio (~``10 ** (0.5 / bins_per_decade) - 1``; 3.7 % at the default
    32 bins/decade).
    """

    bins_per_decade: int = 32
    lo_exp: int = -6
    hi_exp: int = 7
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self) -> None:
        if self.bins_per_decade < 1 or self.hi_exp <= self.lo_exp:
            raise FleetError("histogram needs >= 1 bin/decade and "
                             "lo_exp < hi_exp")
        n = self.n_bins + 2
        if self.counts.size == 0:
            self.counts = np.zeros(n, dtype=np.int64)
        elif self.counts.shape != (n,):
            raise FleetError(f"histogram counts must have {n} slots")
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_bins(self) -> int:
        """Interior (finite-range) bin count."""
        return (self.hi_exp - self.lo_exp) * self.bins_per_decade

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def slots(self, values: np.ndarray) -> np.ndarray:
        """Each value's slot in :attr:`counts`: 0 below the range
        (including zero, negatives and -inf), ``n_bins + 1`` at or above
        it (including +inf), the interior bin in between.  NaN has no
        slot and raises :class:`FleetError`."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if np.isnan(v).any():
            raise FleetError("cannot bin NaN")
        hi_edge = 10.0 ** self.hi_exp
        slot = np.where(v >= hi_edge, self.n_bins + 1, 0)
        mid = (v >= 10.0 ** self.lo_exp) & (v < hi_edge)
        idx = np.floor((np.log10(v[mid]) - self.lo_exp)
                       * self.bins_per_decade).astype(np.int64)
        slot[mid] = 1 + np.clip(idx, 0, self.n_bins - 1)
        return slot

    def add_array(self, values: np.ndarray) -> None:
        """Fold a batch of values into the histogram."""
        self.counts += np.bincount(self.slots(values),
                                   minlength=self.counts.size)

    def merge(self, other: "HistogramSketch") -> "HistogramSketch":
        """Exact merge (integer count addition)."""
        if (self.bins_per_decade, self.lo_exp, self.hi_exp) != (
                other.bins_per_decade, other.lo_exp, other.hi_exp):
            raise FleetError("cannot merge histograms with different bins")
        return HistogramSketch(
            bins_per_decade=self.bins_per_decade,
            lo_exp=self.lo_exp, hi_exp=self.hi_exp,
            counts=self.counts + other.counts)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (geometric bin midpoint)."""
        if not 0.0 <= q <= 1.0:
            raise FleetError(f"quantile must be in [0, 1], got {q!r}")
        total = self.total
        if total == 0:
            return float("nan")
        rank = min(total - 1, int(q * total))
        cumulative = np.cumsum(self.counts)
        slot = int(np.searchsorted(cumulative, rank, side="right"))
        if slot == 0:
            return 0.0
        if slot >= self.counts.size - 1:
            return 10.0 ** self.hi_exp
        exponent = self.lo_exp + (slot - 1 + 0.5) / self.bins_per_decade
        return 10.0 ** exponent

    def nonzero_span(self) -> Sequence[int]:
        """(first, last) occupied interior bin indices, or empty."""
        occupied = np.nonzero(self.counts[1:-1])[0]
        if occupied.size == 0:
            return ()
        return (int(occupied[0]), int(occupied[-1]))

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form."""
        return {
            "bins_per_decade": self.bins_per_decade,
            "lo_exp": self.lo_exp,
            "hi_exp": self.hi_exp,
            "counts": [int(c) for c in self.counts],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "HistogramSketch":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            bins_per_decade=int(data["bins_per_decade"]),  # type: ignore[arg-type]
            lo_exp=int(data["lo_exp"]),  # type: ignore[arg-type]
            hi_exp=int(data["hi_exp"]),  # type: ignore[arg-type]
            counts=np.asarray(data["counts"], dtype=np.int64),
        )


#: Hash-site discriminator for reservoir priorities (style of
#: :mod:`repro.faults` site constants).
_SITE_RESERVOIR = 0x5A3F


@dataclass
class ReservoirSample:
    """Order-free bounded sample: keep the ``k`` smallest priorities.

    Each element's priority is a pure hash of ``(seed, uid)``, so the
    kept set is the ``k`` smallest-priority elements of the *union* of
    everything offered — independent of offer order, chunking, and
    shard layout.  Ties cannot happen across distinct uids in practice
    (64-bit priorities), but ``(priority, uid)`` ordering makes even
    that case deterministic.
    """

    capacity: int = 64
    seed: int = 0
    uids: List[int] = field(default_factory=list)
    priorities: List[int] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise FleetError("reservoir capacity must be >= 1")

    def priorities_of(self, uids: np.ndarray) -> np.ndarray:
        """The uint64 priority of each uid under this sample's seed."""
        return hash_u64_array(self.seed, _SITE_RESERVOIR,
                              np.asarray(uids, dtype=np.int64))

    def admission_bound(self) -> Optional[int]:
        """The largest kept priority once the sample is full (None
        before): an element with a larger priority cannot enter."""
        if len(self.priorities) < self.capacity:
            return None
        return max(self.priorities)

    def admit(self, priorities: np.ndarray, uids: np.ndarray,
              values: np.ndarray) -> None:
        """Keep the ``capacity`` smallest ``(priority, uid)`` of the
        sample and the candidates.  The sort is stable and the kept
        elements go first, so a re-offered uid never displaces itself."""
        if len(uids) == 0:
            return
        pri = np.concatenate(
            [np.asarray(self.priorities, dtype=np.uint64), priorities])
        uid = np.concatenate([np.asarray(self.uids, dtype=np.int64), uids])
        val = np.concatenate(
            [np.asarray(self.samples, dtype=np.float64), values])
        order = np.lexsort((uid, pri))[:self.capacity]
        self.priorities = pri[order].tolist()
        self.uids = uid[order].tolist()
        self.samples = val[order].tolist()

    def offer_array(self, uids: np.ndarray, values: np.ndarray) -> None:
        """Offer a batch of (uid, value) pairs."""
        uid_arr = np.asarray(uids, dtype=np.int64).ravel()
        self.admit(self.priorities_of(uid_arr), uid_arr,
                   np.asarray(values, dtype=np.float64).ravel())

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Exact merge: k smallest priorities of the union."""
        if (self.capacity, self.seed) != (other.capacity, other.seed):
            raise FleetError("cannot merge reservoirs with different "
                             "capacity or seed")
        merged = ReservoirSample(capacity=self.capacity, seed=self.seed,
                                 uids=list(self.uids),
                                 priorities=list(self.priorities),
                                 samples=list(self.samples))
        merged.admit(np.asarray(other.priorities, dtype=np.uint64),
                     np.asarray(other.uids, dtype=np.int64),
                     np.asarray(other.samples, dtype=np.float64))
        return merged

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form (floats round-trip via repr)."""
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "uids": list(self.uids),
            "priorities": list(self.priorities),
            "samples": list(self.samples),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "ReservoirSample":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            capacity=int(data["capacity"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            uids=[int(u) for u in data["uids"]],  # type: ignore[union-attr]
            priorities=[int(p)
                        for p in data["priorities"]],  # type: ignore[union-attr]
            samples=[float(v)
                     for v in data["samples"]],  # type: ignore[union-attr]
        )

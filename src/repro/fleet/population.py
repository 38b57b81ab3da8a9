"""Declarative population specs and the seeded heterogeneous sampler.

A :class:`PopulationSpec` describes *millions* of streaming sessions
without materializing any of them: device classes (SoC power scaling,
display panel, thermal RC, scheme mix), regions (cell counts, shared
cell capacity, mixture-of-lognormal access bandwidth), Zipf title
popularity over the Table-1 workloads, and lognormal session
durations.

:class:`PopulationModel` turns a spec into concrete sessions **state-
lessly**: every attribute of session ``uid`` is a pure splitmix64 hash
of ``(seed, site, uid)`` (the :mod:`repro.faults` determinism idiom),
so any chunking, sharding, or re-visit of the population draws exactly
the same sessions.  That property is what lets the engine stream the
population twice (once to build the cell-contention field, once to
score sessions) in bounded memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..config import (
    BASELINE,
    BATCHING,
    DCC_ONLY,
    DEFAULT_LADDER,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    RACING,
    RadioConfig,
    SchemeConfig,
    SimulationConfig,
)
from ..errors import ConfigError, FleetError
from ..units import MBPS, W
from ..video import workload
from .sketches import hash_u01_array

#: Scheme names a device class may reference (the CLI's vocabulary).
SCHEMES_BY_NAME: Dict[str, SchemeConfig] = {
    s.name.lower(): s for s in
    (BASELINE, BATCHING, RACING, RACE_TO_SLEEP, MAB, GAB, GAB_DCC,
     DCC_ONLY)
}
SCHEMES_BY_NAME["rts"] = RACE_TO_SLEEP

#: Upper bound on the cell-load field (cells x epochs); keeps the
#: contention arrays bounded regardless of what a spec asks for.
MAX_CELL_EPOCHS = 16_000_000

# Hash-site discriminators, one per independent per-session draw.
_SITE_DEVICE = 0xF1E0
_SITE_REGION = 0xF1E1
_SITE_CELL = 0xF1E2
_SITE_TITLE = 0xF1E3
_SITE_DURATION_A = 0xF1E4
_SITE_DURATION_B = 0xF1E5
_SITE_BW_COMPONENT = 0xF1E6
_SITE_BW_A = 0xF1E7
_SITE_BW_B = 0xF1E8
_SITE_START = 0xF1E9

_TWO_PI = 2.0 * math.pi
#: Floor for Box-Muller's log argument (avoids log(0)).
_U_FLOOR = 1e-12


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _normal_from_hashes(seed: int, site_a: int, site_b: int,
                        uids: np.ndarray) -> np.ndarray:
    """Standard normal per uid via Box-Muller on two hash uniforms."""
    u1 = np.maximum(hash_u01_array(seed, site_a, uids), _U_FLOOR)
    u2 = hash_u01_array(seed, site_b, uids)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def threshold_count(
        u: np.ndarray,
        thresholds: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
    """Per element of ``u``, how many ``thresholds`` are ``<= u``.

    Each threshold is a scalar or an array shaped like ``u``.  Over the
    first ``size - 1`` entries of an ascending table ``cum`` this is
    ``clip(searchsorted(cum, u, side="right"), 0, size - 1)``,
    exactly: leaving the last entry uncounted is the clip.
    """
    count = np.zeros(np.shape(u), dtype=np.min_scalar_type(len(thresholds)))
    for threshold in thresholds:
        count += u >= threshold
    return count.astype(np.int64)


def _cumulative(weights: Tuple[float, ...]) -> np.ndarray:
    total = float(sum(weights))
    return np.cumsum(np.asarray(weights, dtype=np.float64)) / total


@dataclass(frozen=True)
class LognormalComponent:
    """One mixture component of a region's access-bandwidth law."""

    weight: float = 1.0
    median: float = 12 * MBPS  # bytes/s
    sigma: float = 0.6  # lognormal shape (dimensionless)

    def __post_init__(self) -> None:
        _require(self.weight > 0, "mixture weight must be positive")
        _require(self.median > 0, "bandwidth median must be positive")
        _require(self.sigma >= 0, "sigma cannot be negative")

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form."""
        return {"weight": self.weight, "median": self.median,
                "sigma": self.sigma}

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "LognormalComponent":
        """Inverse of :meth:`to_jsonable`."""
        return cls(weight=float(data["weight"]),  # type: ignore[arg-type]
                   median=float(data["median"]),  # type: ignore[arg-type]
                   sigma=float(data["sigma"]))  # type: ignore[arg-type]


@dataclass(frozen=True)
class DeviceClass:
    """A handheld hardware profile plus the scheme its firmware ships.

    The class is expressed as deltas on the paper's reference device
    (:class:`~repro.config.SimulationConfig` defaults): an SoC power
    scale applied to the VD's active powers, a panel power, the
    thermal resistance of the chassis, and the MACH sizing.  The
    surrogate calibrates each class against the exact per-frame
    pipeline built from :meth:`to_simulation_config`.
    """

    name: str
    weight: float = 1.0
    scheme: str = "gab"
    soc_power_scale: float = 1.0  # multiplies VD active powers
    display_power: float = 0.12 * W
    thermal_resistance: float = 18.0  # K/W junction -> ambient
    mach_entries: int = 256

    def __post_init__(self) -> None:
        _require(bool(self.name), "device class needs a name")
        _require(self.weight > 0, "device weight must be positive")
        _require(self.scheme.lower() in SCHEMES_BY_NAME,
                 f"unknown scheme {self.scheme!r}; known: "
                 f"{sorted(SCHEMES_BY_NAME)}")
        _require(self.soc_power_scale > 0, "SoC power scale must be > 0")
        _require(self.display_power > 0, "display power must be positive")
        _require(self.thermal_resistance > 0,
                 "thermal resistance must be positive")
        _require(self.mach_entries >= 4, "MACH needs at least one set")

    def scheme_config(self) -> SchemeConfig:
        """The :class:`SchemeConfig` this class runs."""
        return SCHEMES_BY_NAME[self.scheme.lower()]

    def to_simulation_config(self,
                             base: SimulationConfig) -> SimulationConfig:
        """Reference config specialized to this hardware class."""
        decoder = replace(
            base.decoder,
            low_freq_power=base.decoder.low_freq_power
            * self.soc_power_scale,
            high_freq_power=base.decoder.high_freq_power
            * self.soc_power_scale,
        )
        display = replace(base.display, power=self.display_power)
        thermal = replace(base.thermal,
                          thermal_resistance=self.thermal_resistance)
        mach = replace(base.mach, entries_per_mach=self.mach_entries)
        return replace(base, decoder=decoder, display=display,
                       thermal=thermal, mach=mach)

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "DeviceClass":
        """Inverse of :meth:`to_jsonable`."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RegionSpec:
    """A deployment region: cells, shared capacity, bandwidth law."""

    name: str
    weight: float = 1.0
    cells: int = 8
    cell_capacity: float = 120 * MBPS  # bytes/s shared per cell
    bandwidth: Tuple[LognormalComponent, ...] = (
        LognormalComponent(),
    )

    def __post_init__(self) -> None:
        _require(bool(self.name), "region needs a name")
        _require(self.weight > 0, "region weight must be positive")
        _require(self.cells >= 1, "region needs at least one cell")
        _require(self.cell_capacity > 0, "cell capacity must be positive")
        _require(len(self.bandwidth) >= 1,
                 "region needs at least one bandwidth component")

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form."""
        return {
            "name": self.name,
            "weight": self.weight,
            "cells": self.cells,
            "cell_capacity": self.cell_capacity,
            "bandwidth": [c.to_jsonable() for c in self.bandwidth],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RegionSpec":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            name=str(data["name"]),
            weight=float(data["weight"]),  # type: ignore[arg-type]
            cells=int(data["cells"]),  # type: ignore[arg-type]
            cell_capacity=float(data["cell_capacity"]),  # type: ignore[arg-type]
            bandwidth=tuple(
                LognormalComponent.from_jsonable(c)
                for c in data["bandwidth"]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class PopulationSpec:
    """Everything a fleet run needs, declaratively.

    The spec is pure data: it serializes to JSON (``repro fleet
    --spec``), hashes to a stable fingerprint (cache key for the
    surrogate calibration), and validates eagerly so a bad population
    fails before any simulation runs.
    """

    device_classes: Tuple[DeviceClass, ...] = (DeviceClass(name="ref"),)
    regions: Tuple[RegionSpec, ...] = (RegionSpec(name="default"),)
    titles: Tuple[str, ...] = ("V1", "V4", "V8", "V12")
    zipf_exponent: float = 0.8
    duration_median_seconds: float = 180.0
    duration_sigma: float = 0.7
    duration_min_seconds: float = 4.0
    duration_max_seconds: float = 3600.0
    arrival_window_seconds: float = 600.0
    epoch_seconds: float = 2.0
    abr_safety: float = 0.8  # rung picker's bandwidth headroom factor
    ladder: Tuple[float, ...] = DEFAULT_LADDER  # bytes/s, ascending
    preroll_seconds: float = 2.0
    buffer_seconds: float = 10.0
    watermark_seconds: float = 3.0
    radio: RadioConfig = field(default_factory=RadioConfig)
    calib_frames: int = 64
    calib_seed: int = 7

    def __post_init__(self) -> None:
        _require(len(self.device_classes) >= 1, "need a device class")
        _require(len(self.regions) >= 1, "need a region")
        names = [d.name for d in self.device_classes]
        _require(len(set(names)) == len(names),
                 "device class names must be unique")
        region_names = [r.name for r in self.regions]
        _require(len(set(region_names)) == len(region_names),
                 "region names must be unique")
        _require(len(self.titles) >= 1, "need at least one title")
        for key in self.titles:
            workload(key)  # raises ConfigError on unknown keys
        _require(self.zipf_exponent >= 0, "Zipf exponent cannot be negative")
        _require(self.duration_median_seconds > 0,
                 "duration median must be positive")
        _require(self.duration_sigma >= 0, "duration sigma >= 0")
        _require(0 < self.duration_min_seconds <= self.duration_max_seconds,
                 "need 0 < min duration <= max duration")
        _require(self.arrival_window_seconds > 0,
                 "arrival window must be positive")
        _require(self.epoch_seconds > 0, "epoch must be positive")
        _require(0 < self.abr_safety <= 1.0, "abr_safety must be in (0, 1]")
        _require(len(self.ladder) >= 1 and self.ladder[0] > 0
                 and all(b > a for a, b in zip(self.ladder, self.ladder[1:])),
                 "ladder must be ascending and positive")
        _require(self.preroll_seconds > 0, "preroll must be positive")
        _require(0 <= self.watermark_seconds < self.buffer_seconds,
                 "need 0 <= watermark < buffer capacity")
        _require(self.calib_frames >= 8, "calibration needs >= 8 frames")
        _require(self.total_cells * self.epoch_count <= MAX_CELL_EPOCHS,
                 f"cell-load field {self.total_cells} cells x "
                 f"{self.epoch_count} epochs exceeds the "
                 f"{MAX_CELL_EPOCHS} bound — coarsen epoch_seconds or "
                 "shrink the horizon")

    @property
    def total_cells(self) -> int:
        return sum(r.cells for r in self.regions)

    @property
    def epoch_count(self) -> int:
        """Epochs covering every session's (start, start+duration)."""
        horizon = self.arrival_window_seconds + self.duration_max_seconds
        return int(math.ceil(horizon / self.epoch_seconds)) + 1

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form (the ``repro fleet --spec`` file format)."""
        return {
            "device_classes": [d.to_jsonable()
                               for d in self.device_classes],
            "regions": [r.to_jsonable() for r in self.regions],
            "titles": list(self.titles),
            "zipf_exponent": self.zipf_exponent,
            "duration_median_seconds": self.duration_median_seconds,
            "duration_sigma": self.duration_sigma,
            "duration_min_seconds": self.duration_min_seconds,
            "duration_max_seconds": self.duration_max_seconds,
            "arrival_window_seconds": self.arrival_window_seconds,
            "epoch_seconds": self.epoch_seconds,
            "abr_safety": self.abr_safety,
            "ladder": list(self.ladder),
            "preroll_seconds": self.preroll_seconds,
            "buffer_seconds": self.buffer_seconds,
            "watermark_seconds": self.watermark_seconds,
            "radio": {f.name: getattr(self.radio, f.name)
                      for f in fields(self.radio)},
            "calib_frames": self.calib_frames,
            "calib_seed": self.calib_seed,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "PopulationSpec":
        """Inverse of :meth:`to_jsonable` (tolerates omitted fields)."""
        kwargs: Dict[str, object] = {}
        if "device_classes" in data:
            kwargs["device_classes"] = tuple(
                DeviceClass.from_jsonable(d)
                for d in data["device_classes"])  # type: ignore[union-attr]
        if "regions" in data:
            kwargs["regions"] = tuple(
                RegionSpec.from_jsonable(r)
                for r in data["regions"])  # type: ignore[union-attr]
        if "titles" in data:
            kwargs["titles"] = tuple(data["titles"])  # type: ignore[arg-type]
        if "ladder" in data:
            kwargs["ladder"] = tuple(data["ladder"])  # type: ignore[arg-type]
        if "radio" in data:
            kwargs["radio"] = RadioConfig(**data["radio"])  # type: ignore[arg-type]
        for name in ("zipf_exponent", "duration_median_seconds",
                     "duration_sigma", "duration_min_seconds",
                     "duration_max_seconds", "arrival_window_seconds",
                     "epoch_seconds", "abr_safety", "preroll_seconds",
                     "buffer_seconds", "watermark_seconds"):
            if name in data:
                kwargs[name] = float(data[name])  # type: ignore[arg-type]
        for name in ("calib_frames", "calib_seed"):
            if name in data:
                kwargs[name] = int(data[name])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """Stable content hash (calibration cache key, report tag)."""
        canonical = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class SessionChunk:
    """A contiguous block of drawn sessions (parallel numpy arrays)."""

    uid: np.ndarray  # int64 global session ids
    device: np.ndarray  # int64 index into spec.device_classes
    region: np.ndarray  # int64 index into spec.regions
    cell: np.ndarray  # int64 cell index within the region
    title: np.ndarray  # int64 index into spec.titles
    duration_seconds: np.ndarray  # float64 content length
    bandwidth: np.ndarray  # float64 private access bandwidth, bytes/s
    start_seconds: np.ndarray  # float64 arrival offset in the window

    @property
    def size(self) -> int:
        return int(self.uid.size)


class PopulationModel:
    """Stateless seeded sampler over a :class:`PopulationSpec`.

    ``draw_chunk(start, count)`` returns sessions ``start ..
    start+count-1``; every value is a pure function of ``(seed, uid)``,
    so chunk boundaries never change what any session looks like.

    Every categorical draw is a :func:`threshold_count` of its uniform
    against the table's cumulative weights less the last, which the
    constructor builds once per spec.
    """

    def __init__(self, spec: PopulationSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self._device_cum = _cumulative(
            tuple(d.weight for d in spec.device_classes))[:-1]
        self._region_cum = _cumulative(
            tuple(r.weight for r in spec.regions))[:-1]
        ranks = np.arange(1, len(spec.titles) + 1, dtype=np.float64)
        zipf = ranks ** -spec.zipf_exponent
        self._title_cum = (np.cumsum(zipf) / zipf.sum())[:-1]
        self._cells = np.asarray([r.cells for r in spec.regions],
                                 dtype=np.int64)
        # Bandwidth mixture tables, one row per (region, component)
        # slot ``region * width + component``.  Component cumulative
        # weights are padded with +inf, which no uniform reaches, so a
        # region's draw never lands past its own last component.
        width = max(len(r.bandwidth) for r in spec.regions)
        self._mix_width = width
        self._mix_cum = np.full((width - 1, len(spec.regions)), np.inf)
        self._mix_median = np.ones(len(spec.regions) * width)
        self._mix_sigma = np.zeros(len(spec.regions) * width)
        for r_idx, region_spec in enumerate(spec.regions):
            comps = region_spec.bandwidth
            slots = slice(r_idx * width, r_idx * width + len(comps))
            self._mix_cum[:len(comps) - 1, r_idx] = _cumulative(
                tuple(c.weight for c in comps))[:-1]
            self._mix_median[slots] = [c.median for c in comps]
            self._mix_sigma[slots] = [c.sigma for c in comps]

    def draw_chunk(self, start: int, count: int) -> SessionChunk:
        """Sessions ``[start, start+count)`` as parallel arrays.

        Raises :class:`FleetError` for a negative ``start`` or
        ``count``; ``count == 0`` is an empty chunk.
        """
        if start < 0 or count < 0:
            raise FleetError(f"cannot draw {count} sessions from uid "
                             f"{start}: start and count must be >= 0")
        spec = self.spec
        seed = self.seed
        uids = np.arange(start, start + count, dtype=np.int64)

        device = threshold_count(
            hash_u01_array(seed, _SITE_DEVICE, uids), self._device_cum)
        region = threshold_count(
            hash_u01_array(seed, _SITE_REGION, uids), self._region_cum)
        cell = np.floor(hash_u01_array(seed, _SITE_CELL, uids)
                        * self._cells[region]).astype(np.int64)
        title = threshold_count(
            hash_u01_array(seed, _SITE_TITLE, uids), self._title_cum)

        z_dur = _normal_from_hashes(seed, _SITE_DURATION_A,
                                    _SITE_DURATION_B, uids)
        duration = np.clip(
            spec.duration_median_seconds
            * np.exp(spec.duration_sigma * z_dur),
            spec.duration_min_seconds, spec.duration_max_seconds)

        comp = threshold_count(
            hash_u01_array(seed, _SITE_BW_COMPONENT, uids),
            [row[region] for row in self._mix_cum])
        slot = region * self._mix_width + comp
        z_bw = _normal_from_hashes(seed, _SITE_BW_A, _SITE_BW_B, uids)
        bandwidth = (self._mix_median[slot]
                     * np.exp(self._mix_sigma[slot] * z_bw))

        start_s = (hash_u01_array(seed, _SITE_START, uids)
                   * spec.arrival_window_seconds)
        return SessionChunk(uid=uids, device=device, region=region,
                            cell=cell, title=title,
                            duration_seconds=duration,
                            bandwidth=bandwidth, start_seconds=start_s)


def default_population() -> PopulationSpec:
    """The reference heterogeneous population used by CLI/benchmarks.

    Three hardware tiers (flagship GAB silicon down to a baseline
    budget device), three regions with mixture-of-lognormal access
    bandwidth and shared cells, and an eight-title Zipf catalogue
    spanning the paper's content classes.
    """
    return PopulationSpec(
        device_classes=(
            DeviceClass(name="flagship", weight=0.25, scheme="gab",
                        soc_power_scale=1.0, display_power=0.12 * W,
                        thermal_resistance=16.0),
            DeviceClass(name="midrange", weight=0.45,
                        scheme="race-to-sleep",
                        soc_power_scale=1.15, display_power=0.15 * W,
                        thermal_resistance=18.0),
            DeviceClass(name="budget", weight=0.30, scheme="baseline",
                        soc_power_scale=1.30, display_power=0.18 * W,
                        thermal_resistance=22.0, mach_entries=128),
        ),
        regions=(
            RegionSpec(name="metro", weight=0.5, cells=24,
                       cell_capacity=150 * MBPS,
                       bandwidth=(
                           LognormalComponent(weight=0.7,
                                              median=24 * MBPS,
                                              sigma=0.5),
                           LognormalComponent(weight=0.3,
                                              median=6 * MBPS,
                                              sigma=0.7),
                       )),
            RegionSpec(name="suburban", weight=0.3, cells=16,
                       cell_capacity=100 * MBPS,
                       bandwidth=(
                           LognormalComponent(weight=0.6,
                                              median=12 * MBPS,
                                              sigma=0.6),
                           LognormalComponent(weight=0.4,
                                              median=4 * MBPS,
                                              sigma=0.8),
                       )),
            RegionSpec(name="rural", weight=0.2, cells=8,
                       cell_capacity=40 * MBPS,
                       bandwidth=(
                           LognormalComponent(weight=0.5,
                                              median=6 * MBPS,
                                              sigma=0.7),
                           LognormalComponent(weight=0.5,
                                              median=2 * MBPS,
                                              sigma=0.9),
                       )),
        ),
        titles=("V1", "V3", "V4", "V5", "V8", "V9", "V12", "V14"),
    )

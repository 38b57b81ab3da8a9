"""Flow-level session surrogate calibrated from the exact pipeline.

Scaling to millions of sessions rules out running the per-frame
pipeline per user; the established scale jump is flow-level
abstraction: each *(device class, title)* pair is simulated **once**
through the exact pipeline (:func:`repro.core.pipeline.simulate`) and
reduced to a handful of per-frame coefficients — energy per displayed
frame, throttle fraction, and the device's power while stalled.  A
session of any duration is then priced as ``coefficients x frames``
plus an analytic radio/stall model (see :mod:`repro.fleet.engine`).

The surrogate's error budget, which `repro validate` enforces:

* On the calibration population itself (sessions whose duration pins
  exactly ``calib_frames`` frames, unconstrained bandwidth), the
  surrogate's cohort-mean play energy matches the exact
  ``run_matrix`` figures to within the aggregation quantum
  (well under 0.5 % relative).
* Away from the calibration point the per-frame coefficients assume
  energy linear in frame count; the pipeline's warmup transient makes
  that a small *overestimate* for long sessions (startup costs are
  amortized once, not per frame).

Calibration runs the titles in parallel on the supervised executor
(:mod:`repro.executor`), one task per title.  Each worker synthesises
its title's frames once and plays them on every device class, so the
parent holds no frames.  The workers' coefficients come back as sealed
JSON, whose floats round-trip exactly, so the table is bit-identical to
a serial loop over the pairs.

Calibration is expensive (it runs the real pipeline), so it caches to
JSON keyed by the spec fingerprint and, on every load, re-runs one
probe pair in-process to detect drift between the cached coefficients
and the current pipeline code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SimulationConfig
from ..errors import FleetError
from ..executor import Payload, Supervisor, SupervisorConfig, usable_workers
from ..video import SyntheticVideo, workload
from ..video.synthesis import FrameList
from .population import PopulationSpec

#: Relative tolerance for the drift probe: a cached entry farther than
#: this from a fresh pipeline run means the pipeline changed since
#: calibration, and the whole cache is rebuilt.
DRIFT_RTOL = 1e-9


def _entry_key(device: str, title: str) -> str:
    return f"{device}|{title}"


@dataclass(frozen=True)
class CalibEntry:
    """Per-(device class, title) flow-level coefficients."""

    device: str
    title: str
    energy_per_frame: float  # J per displayed frame, exact pipeline
    stall_power: float  # W while playback is stalled (panel + S3 + SR)
    throttle_fraction: float  # fraction of wall time with boost revoked
    drop_rate: float  # fraction of frames missing their vsync
    calib_frames: int

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form (floats round-trip via repr)."""
        return {
            "device": self.device,
            "title": self.title,
            "energy_per_frame": self.energy_per_frame,
            "stall_power": self.stall_power,
            "throttle_fraction": self.throttle_fraction,
            "drop_rate": self.drop_rate,
            "calib_frames": self.calib_frames,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "CalibEntry":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            device=str(data["device"]),
            title=str(data["title"]),
            energy_per_frame=float(data["energy_per_frame"]),  # type: ignore[arg-type]
            stall_power=float(data["stall_power"]),  # type: ignore[arg-type]
            throttle_fraction=float(data["throttle_fraction"]),  # type: ignore[arg-type]
            drop_rate=float(data["drop_rate"]),  # type: ignore[arg-type]
            calib_frames=int(data["calib_frames"]),  # type: ignore[arg-type]
        )


@dataclass
class FleetCalibration:
    """The full coefficient table for one population spec."""

    fingerprint: str
    entries: Dict[str, CalibEntry]

    def entry(self, device: str, title: str) -> CalibEntry:
        """Coefficients for one (device class, title) pair."""
        try:
            return self.entries[_entry_key(device, title)]
        except KeyError:
            raise FleetError(
                f"no calibration entry for device {device!r} x title "
                f"{title!r} — recalibrate against the current spec"
            ) from None

    def coefficient_arrays(
            self, spec: PopulationSpec
    ) -> Dict[str, np.ndarray]:
        """Dense lookup tables indexed by (device_idx, title_idx)."""
        shape = (len(spec.device_classes), len(spec.titles))
        epf = np.zeros(shape, dtype=np.float64)
        throttle = np.zeros(shape, dtype=np.float64)
        stall = np.zeros(len(spec.device_classes), dtype=np.float64)
        for d_idx, device in enumerate(spec.device_classes):
            for t_idx, title in enumerate(spec.titles):
                entry = self.entry(device.name, title)
                epf[d_idx, t_idx] = entry.energy_per_frame
                throttle[d_idx, t_idx] = entry.throttle_fraction
                stall[d_idx] = entry.stall_power
        return {"energy_per_frame": epf,
                "throttle_fraction": throttle,
                "stall_power": stall}

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form (the on-disk cache format)."""
        return {
            "fingerprint": self.fingerprint,
            "entries": {key: entry.to_jsonable()
                        for key, entry in sorted(self.entries.items())},
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "FleetCalibration":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            fingerprint=str(data["fingerprint"]),
            entries={
                key: CalibEntry.from_jsonable(entry)
                for key, entry in data["entries"].items()  # type: ignore[union-attr]
            },
        )

    def save(self, path: str) -> None:
        """Write the cache file atomically enough for a CLI tool."""
        payload = json.dumps(self.to_jsonable(), indent=2, sort_keys=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "FleetCalibration":
        """Read a cache file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonable(json.load(handle))


def _stall_power(config: SimulationConfig) -> float:
    """Device power while playback is stalled waiting on the network.

    The VD sleeps in S3, DRAM self-refreshes, and the panel keeps
    showing the last frame — the same composition the session
    simulator charges during pauses.
    """
    return (config.display.power
            + config.decoder.power_states.s3_power
            + config.dram.background_power
            * config.dram.self_refresh_fraction)


def _title_frames(spec: PopulationSpec, title: str,
                  base: SimulationConfig) -> FrameList:
    """One title's calibration frames, synthesised once for every device.

    Device classes differ in decoder, display, thermal and MACH
    settings, never in the video geometry or the content's complexity
    spread, so every class plays the same frames.
    """
    return SyntheticVideo(
        base.video, workload(title), seed=spec.calib_seed,
        n_frames=spec.calib_frames,
        complexity_sigma=base.calibration.complexity_sigma).materialize()


def _calibrate_pair(spec: PopulationSpec, device_index: int, title: str,
                    frames: FrameList,
                    base: SimulationConfig) -> CalibEntry:
    """Run the exact pipeline once for one (device, title) pair."""
    from ..core.pipeline import simulate

    device = spec.device_classes[device_index]
    config = device.to_simulation_config(base)
    run = simulate(frames, device.scheme_config(), config=config,
                   seed=spec.calib_seed)
    throttle_fraction = (run.throttle_seconds / run.elapsed
                         if run.elapsed > 0 else 0.0)
    return CalibEntry(
        device=device.name,
        title=title,
        energy_per_frame=run.energy.total / run.n_frames,
        stall_power=_stall_power(config),
        throttle_fraction=throttle_fraction,
        drop_rate=run.drop_rate,
        calib_frames=spec.calib_frames,
    )


@dataclass(frozen=True)
class _TitleJob:
    """One calibration task: a title played on every device class."""

    title: str

    @property
    def key(self) -> Tuple[str, str]:
        return "calibrate", self.title


def calibrate(spec: PopulationSpec,
              config: Optional[SimulationConfig] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> FleetCalibration:
    """Calibrate every (device class, title) pair from scratch.

    One executor task per title, on as many workers as there are usable
    CPUs: each worker synthesises its title once and plays those frames
    on every device class.  ``progress`` is called in the parent, once
    per title as its coefficients are accepted.

    Raises:
        Exception: what a pair raised, as its own type (a
            :class:`~repro.errors.ReproError` stays typed).
        RunnerError: when a title's worker kept failing, or when
            called inside an executor worker.
    """
    base = config or SimulationConfig()
    n_devices = len(spec.device_classes)
    rows: Dict[str, List[CalibEntry]] = {}

    def execute(job: _TitleJob) -> Payload:
        frames = _title_frames(spec, job.title, base)
        return {"entries": [
            _calibrate_pair(spec, d_idx, job.title, frames,
                            base).to_jsonable()
            for d_idx in range(n_devices)]}

    def accept(job: _TitleJob, payload: Payload) -> bool:
        if job.title in rows:
            return False
        rows[job.title] = [CalibEntry.from_jsonable(row)
                           for row in payload["entries"]]
        if progress is not None:
            progress(f"calibrating: {job.title} done on {n_devices} "
                     f"device classes ({len(rows)}/{len(spec.titles)} "
                     "titles)")
        return True

    jobs = [_TitleJob(title) for title in spec.titles]
    outcomes = Supervisor(
        jobs, execute, accept,
        SupervisorConfig(workers=usable_workers(len(jobs))),
        seed=spec.calib_seed).run()
    for job in jobs:
        error = outcomes[job.key].error
        if error is not None:
            raise error
    return FleetCalibration(
        fingerprint=spec.fingerprint(),
        entries={_entry_key(entry.device, title): entry
                 for title in spec.titles for entry in rows[title]})


def _drifted(cached: CalibEntry, fresh: CalibEntry) -> bool:
    """Has the pipeline moved away from the cached coefficients?"""
    return not (
        math.isclose(cached.energy_per_frame, fresh.energy_per_frame,
                     rel_tol=DRIFT_RTOL, abs_tol=0.0)
        and math.isclose(cached.stall_power, fresh.stall_power,
                         rel_tol=DRIFT_RTOL, abs_tol=0.0)
        and math.isclose(cached.throttle_fraction,
                         fresh.throttle_fraction,
                         rel_tol=DRIFT_RTOL, abs_tol=1e-12)
    )


def load_or_calibrate(spec: PopulationSpec, path: str,
                      config: Optional[SimulationConfig] = None,
                      progress: Optional[Callable[[str], None]] = None,
                      drift_check: bool = True) -> FleetCalibration:
    """Cached calibration: load ``path`` if fresh, else (re)build it.

    A cache hit requires the stored fingerprint to match the spec
    *and* (when ``drift_check``) one re-simulated probe pair to agree
    with its cached coefficients — so a stale cache after a pipeline
    change is rebuilt instead of silently mispricing the fleet.
    """
    base = config or SimulationConfig()
    cached: Optional[FleetCalibration] = None
    if os.path.exists(path):
        try:
            cached = FleetCalibration.load(path)
        except (OSError, ValueError, KeyError):
            cached = None  # unreadable/corrupt cache: rebuild
    if cached is not None and cached.fingerprint == spec.fingerprint():
        if not drift_check:
            return cached
        probe_title = spec.titles[0]
        probe_device = spec.device_classes[0].name
        if progress is not None:
            progress(f"drift probe {probe_device} x {probe_title}")
        fresh = _calibrate_pair(spec, 0, probe_title,
                                _title_frames(spec, probe_title, base), base)
        try:
            stored = cached.entry(probe_device, probe_title)
        except FleetError:
            stored = None
        if stored is not None and not _drifted(stored, fresh):
            return cached
        if progress is not None:
            progress("calibration drift detected — rebuilding")
    calibration = calibrate(spec, config=base, progress=progress)
    calibration.save(path)
    return calibration

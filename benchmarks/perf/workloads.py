"""The benchmark's four workloads.

Each workload is one user-level call repeated as-is.  ``setup(seed)``
does everything a user pays once per process — importing the
simulator, building the workload, a short warm-up (or, for the fleet,
``calibrate()``) — and returns the zero-argument call that one
repetition times.  The calls look their entry points up on the module
at call time (``pipeline.simulate``, ``engine.run_fleet``,
``surrogate.calibrate``) so that the traced pass sees every call
through the wrappers it installs on those modules.

Why these four: ``mach_hits`` makes the content-caching write path and
the display read path hot; ``raw_dram`` bypasses both and is the
control on which write/read-path changes must show no change;
``dcc_misses_throttled`` drives the same write layer insert-heavy (DCC
compression of MACH misses) under the adaptive Race-to-Sleep governor;
``fleet_300k`` exercises the population/contention/aggregate layers
with no per-frame pipeline, and its set-up (``calibrate()``, 24 exact
64-frame runs) stands in for many-short-runs users.

A repetition takes 0.5-1 s on the reference host.  Shorter ones track
the host's speed through the probe timed right before each of them
better, and a 20 s run makes 20-40 of them.

``--seed`` feeds every seed a workload has: the content and ``simulate``
seeds, the thermal event schedule, and the population and calibration
seeds of the fleet.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict

#: Seed of the pinned reference digests.
DEFAULT_SEED = 7

#: Frames of the warm-up ``simulate`` each playback set-up runs.
WARMUP_FRAMES = 32


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    item: str  # what throughput counts: "frame" or "session"
    items: int  # items one repetition completes
    setup: Callable[[int], Callable[[], Any]]
    #: Re-run ``setup`` under the tracer in the traced pass, because
    #: the set-up is itself layer work worth splitting (``calibrate``).
    traced_setup: bool = False


def _playback(video: str, scheme_name: str, n_frames: int,
              thermal: bool) -> Callable[[int], Callable[[], Any]]:
    def setup(seed: int) -> Callable[[], Any]:
        from repro import config as cfg_mod
        from repro.core import pipeline
        from repro.video import workload

        scheme = getattr(cfg_mod, scheme_name)
        config = cfg_mod.SimulationConfig()
        if thermal:
            config = cfg_mod.SimulationConfig(thermal=cfg_mod.ThermalConfig(
                enabled=True, seed=seed, event_interval=1.0,
                cap_drop_rate=1.0, cap_drop_duty=0.5,
                delayed_transition_rate=0.5))
        profile = workload(video)
        pipeline.simulate(profile, scheme, n_frames=WARMUP_FRAMES,
                          config=config, seed=seed)

        def rep() -> Any:
            return pipeline.simulate(profile, scheme, n_frames=n_frames,
                                     config=config, seed=seed)
        return rep
    return setup


def _fleet(n_sessions: int) -> Callable[[int], Callable[[], Any]]:
    def setup(seed: int) -> Callable[[], Any]:
        from dataclasses import replace

        from repro.fleet import engine, surrogate
        from repro.fleet.population import default_population

        spec = replace(default_population(), calib_seed=seed)
        calibration = surrogate.calibrate(spec)

        def rep() -> Any:
            return engine.run_fleet(spec, n_sessions, seed=seed, shards=2,
                                    calibration=calibration)
        return rep
    return setup


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mach_hits", "frame", 300,
             _playback("V8", "GAB", 300, thermal=False)),
    Workload("raw_dram", "frame", 600,
             _playback("V8", "BASELINE", 600, thermal=False)),
    Workload("dcc_misses_throttled", "frame", 300,
             _playback("V3", "GAB_DCC", 300, thermal=True)),
    Workload("fleet_300k", "session", 300_000, _fleet(300_000),
             traced_setup=True),
)}


def digest(result: Any) -> str:
    """sha256 of the canonical JSON of a result's ``to_jsonable()``."""
    canonical = json.dumps(result.to_jsonable(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def float_canary() -> str:
    """Fingerprint of this host's floating-point library.

    Simulated results are bit-identical run to run on one host, but
    numpy picks vectorised ``exp``/``log``/trig kernels by CPU, and
    those may differ in the last bit between CPUs.  The pinned digests
    are checked only where this fingerprint equals the pinned one;
    elsewhere results are checked for self-consistency alone.
    """
    import numpy as np

    grid = np.linspace(-20.0, 20.0, 4099)
    rng = np.random.default_rng(DEFAULT_SEED)
    parts = (np.exp(grid), np.log1p(np.abs(grid)), np.log(np.abs(grid) + 1e-3),
             np.sin(grid), np.cos(grid), np.tanh(grid), np.power(1.07, grid),
             np.sqrt(np.abs(grid)), rng.lognormal(0.0, 0.7, 4099),
             rng.normal(size=4099), np.cumsum(grid) / 7.0)
    hasher = hashlib.sha256(np.__version__.encode("utf-8"))
    for part in parts:
        hasher.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return hasher.hexdigest()[:16]

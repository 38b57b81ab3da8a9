"""Pipeline speed benchmark: frames/sec over a reference session matrix.

The per-frame hot path (digest + MACH classification, write coalescing,
readpath scans, display-cache and DRAM accounting) runs as batched
structure-of-arrays kernels (:mod:`repro.core.soa`,
:func:`repro.hashing.crc.crc_pair_blocks`, ...).  This bench pins the
resulting throughput on a fixed matrix of configurations spanning the
raw, MACH, and display-cache write paths, with and without the thermal
governor and a trace-driven network model — the same axes the paper's
figures sweep.

Frame streams are pre-materialized (``simulate`` accepts any sized
iterable of :class:`DecodedFrame`), so the numbers measure the pipeline
itself rather than content synthesis.  Three reference points live in
``BENCH_speed.json``:

* ``full.configs`` — vectorized frames/sec per configuration;
* ``scalar_reference`` — the same matrix with the pipeline's write
  engine built on the scalar per-block walk of ``tests/mach_oracle.py``
  (patched in, as the equivalence suite does; re-measurable at any
  commit — the suite proves the two paths bit-identical);
* ``pre_pr`` — a frozen anchor measured on the pre-vectorization tree
  (regenerate with ``--emit-anchor`` from a checkout of that commit).

Run standalone::

    python benchmarks/bench_speed.py                     # full matrix
    python benchmarks/bench_speed.py --smoke --check BENCH_speed.json

The ``--smoke`` form is the CI gate: it re-measures the reduced matrix
and fails when any configuration regresses more than ``--tolerance``
(default 20%) below the checked-in smoke numbers.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence
from unittest import mock

import numpy as np

from repro import simulate, workload
from repro.analysis import format_table
from repro.config import (
    BASELINE,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    SchemeConfig,
    SimulationConfig,
    ThermalConfig,
)
from repro.core import pipeline
from repro.video.frame import DecodedFrame
from repro.video.synthesis import SyntheticVideo

try:  # pytest package-relative; absolute when run as a script
    from .conftest import BENCH_SEED
except ImportError:  # pragma: no cover - script mode
    BENCH_SEED = 7

#: Reference workload (Table 1) behind every configuration.
WORKLOAD = "V8"

#: Frame counts for the full matrix and the CI smoke sweep.
FULL_FRAMES = 240
SMOKE_FRAMES = 48

#: Allowed fractional frames/sec drop before the CI gate fails.
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class MatrixEntry:
    """One benchmark configuration (scheme + pipeline toggles)."""

    name: str
    scheme: SchemeConfig
    thermal: bool = False
    network: bool = False


#: The reference session matrix: raw, MACH, and display-cache write
#: paths, plus the thermal governor and a delivered-network session.
MATRIX = (
    MatrixEntry("raw_baseline", BASELINE),
    MatrixEntry("race_to_sleep", RACE_TO_SLEEP),
    MatrixEntry("mach_intra", MAB),
    MatrixEntry("mach_global", GAB),
    MatrixEntry("mach_display_cache", GAB_DCC),
    MatrixEntry("mach_global_thermal", GAB, thermal=True),
    MatrixEntry("mach_global_network", GAB, network=True),
)


def _write_path(vectorized: bool) -> ContextManager[Any]:
    """Inside the block, ``simulate`` writes through the chosen path.

    The scalar path is the per-block walk kept as the write kernel's
    test oracle (``tests/mach_oracle.py``), imported from the checkout
    this file belongs to.
    """
    if vectorized:
        return nullcontext()
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests.mach_oracle import ScalarWritebackEngine

    return mock.patch.object(pipeline, "WritebackEngine",
                             ScalarWritebackEngine)


def _materialize(cfg: SimulationConfig, n_frames: int) -> List[DecodedFrame]:
    """Pre-decode the reference stream so timing excludes synthesis."""
    return list(SyntheticVideo(
        cfg.video, workload(WORKLOAD), seed=BENCH_SEED, n_frames=n_frames,
        complexity_sigma=cfg.calibration.complexity_sigma))


def _simulate_kwargs(entry: MatrixEntry, cfg: SimulationConfig,
                     n_frames: int) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if entry.network:
        from repro.network import DeliveredNetworkModel, deliver_for_config

        delivery = deliver_for_config(
            cfg.network, cfg.video, source=workload(WORKLOAD),
            n_frames=n_frames, seed=BENCH_SEED)
        kwargs["network_model"] = DeliveredNetworkModel(delivery, n_frames)
    return kwargs


def _entry_config(entry: MatrixEntry, cfg: SimulationConfig) -> SimulationConfig:
    if entry.thermal:
        return replace(cfg, thermal=ThermalConfig(enabled=True))
    return cfg


def _measure(entry: MatrixEntry, stream: Sequence[DecodedFrame],
             cfg: SimulationConfig, n_frames: int, repeats: int,
             vectorized: bool = True) -> Dict[str, float]:
    """Best-of-``repeats`` wall time for one configuration."""
    run_cfg = _entry_config(entry, cfg)
    kwargs = _simulate_kwargs(entry, run_cfg, n_frames)
    best = math.inf
    with _write_path(vectorized):
        for _ in range(repeats):
            start = time.perf_counter()
            simulate(stream, entry.scheme, n_frames=n_frames,
                     config=run_cfg, seed=BENCH_SEED, **kwargs)
            best = min(best, time.perf_counter() - start)
    return {
        "frames_per_second": n_frames / best,
        "ms_per_frame": 1000.0 * best / n_frames,
    }


def _measure_matrix(n_frames: int, repeats: int, vectorized: bool = True,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> Dict[str, Dict[str, float]]:
    cfg = SimulationConfig()
    stream = _materialize(cfg, n_frames)
    configs: Dict[str, Dict[str, float]] = {}
    for entry in MATRIX:
        configs[entry.name] = _measure(
            entry, stream, cfg, n_frames, repeats, vectorized=vectorized)
        if progress is not None:
            row = configs[entry.name]
            progress(f"  {entry.name:22s} {row['frames_per_second']:8.0f} "
                     f"f/s  ({row['ms_per_frame']:.2f} ms/frame)")
    return configs


def _geomean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def _speedups(fast: Dict[str, Dict[str, float]],
              slow: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        name: fast[name]["frames_per_second"] / row["frames_per_second"]
        for name, row in slow.items()
        if name in fast and row.get("frames_per_second")
    }


def _bench(repeats: int = 3,
           anchor: Optional[Dict[str, object]] = None,
           progress: Optional[Callable[[str], None]] = None,
           ) -> Dict[str, object]:
    """Measure the full matrix and assemble the JSON payload."""
    say = progress or (lambda _line: None)
    say("vectorized (full):")
    full = _measure_matrix(FULL_FRAMES, repeats, progress=progress)
    say("vectorized (smoke size):")
    smoke = _measure_matrix(SMOKE_FRAMES, max(2, repeats - 1),
                            progress=progress)
    say("scalar reference:")
    scalar = _measure_matrix(FULL_FRAMES, 2, vectorized=False,
                             progress=progress)
    vs_scalar = _speedups(full, scalar)
    payload: Dict[str, object] = {
        "schema": 1,
        "seed": BENCH_SEED,
        "workload": WORKLOAD,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "full": {"n_frames": FULL_FRAMES, "repeats": repeats,
                 "configs": full},
        "smoke": {"n_frames": SMOKE_FRAMES, "repeats": max(2, repeats - 1),
                  "configs": smoke},
        "scalar_reference": {"n_frames": FULL_FRAMES, "repeats": 2,
                             "configs": scalar},
        "speedup_vs_scalar": vs_scalar,
        "aggregate": {
            "geomean_fps": _geomean(
                [row["frames_per_second"] for row in full.values()]),
            "geomean_speedup_vs_scalar": _geomean(list(vs_scalar.values())),
        },
    }
    if anchor is not None:
        vs_pre = _speedups(full, anchor["configs"])
        payload["pre_pr"] = anchor
        payload["speedup_vs_pre_pr"] = vs_pre
        payload["aggregate"]["geomean_speedup_vs_pre_pr"] = _geomean(
            list(vs_pre.values()))
    return payload


def check_regression(measured: Dict[str, Dict[str, float]],
                     reference: Dict[str, Dict[str, float]],
                     tolerance: float) -> List[str]:
    """Configurations whose frames/sec regressed beyond ``tolerance``."""
    failures = []
    for name, ref in reference.items():
        if name not in measured:
            failures.append(f"{name}: missing from measured matrix")
            continue
        got = measured[name]["frames_per_second"]
        want = ref["frames_per_second"]
        if got < (1.0 - tolerance) * want:
            failures.append(
                f"{name}: {got:.0f} f/s vs checked-in {want:.0f} f/s "
                f"({got / want - 1.0:+.1%}, tolerance -{tolerance:.0%})")
    return failures


def test_vectorized_speedup(emit):
    """The SoA kernels beat the scalar reference on the MACH matrix."""
    cfg = SimulationConfig()
    stream = _materialize(cfg, SMOKE_FRAMES)
    rows = []
    for entry in MATRIX:
        if not entry.scheme.uses_mach:
            continue
        fast = _measure(entry, stream, cfg, SMOKE_FRAMES, 2)
        slow = _measure(entry, stream, cfg, SMOKE_FRAMES, 2,
                        vectorized=False)
        ratio = (fast["frames_per_second"] / slow["frames_per_second"])
        rows.append([entry.name, fast["frames_per_second"],
                     slow["frames_per_second"], ratio])
    emit(format_table(
        ["config", "vectorized f/s", "scalar f/s", "speedup"], rows,
        title="SoA kernel speedup (reduced matrix)"))
    assert all(row[-1] > 1.5 for row in rows), (
        "vectorized write path no longer beats the scalar reference")


def _main() -> None:  # pragma: no cover - script entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI (vectorized only)")
    parser.add_argument("--check", metavar="JSON",
                        help="fail on fps regression vs this checked-in "
                             "BENCH_speed.json")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional fps drop (default 0.20)")
    parser.add_argument("--anchor", metavar="JSON",
                        help="frozen pre-PR numbers to embed (produced "
                             "by --emit-anchor on the pre-PR tree)")
    parser.add_argument("--emit-anchor", action="store_true",
                        help="measure this tree's default path and emit "
                             "an anchor JSON instead of the full payload")
    parser.add_argument("--out", default="BENCH_speed.json")
    args = parser.parse_args()

    if args.emit_anchor:
        configs = _measure_matrix(FULL_FRAMES, 2, progress=print)
        anchor = {"n_frames": FULL_FRAMES, "configs": configs,
                  "note": "measured on the pre-vectorization tree with "
                          "this same bench file"}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(anchor, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote anchor {args.out}")
        return

    if args.smoke:
        print("smoke matrix:")
        configs = _measure_matrix(SMOKE_FRAMES, 2, progress=print)
        payload: Dict[str, object] = {
            "schema": 1, "mode": "smoke", "seed": BENCH_SEED,
            "workload": WORKLOAD,
            "smoke": {"n_frames": SMOKE_FRAMES, "repeats": 2,
                      "configs": configs},
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
        if args.check:
            with open(args.check, "r", encoding="utf-8") as handle:
                reference = json.load(handle)
            failures = check_regression(
                configs, reference["smoke"]["configs"], args.tolerance)
            if failures:
                raise SystemExit("fps regression vs " + args.check + ":\n  "
                                 + "\n  ".join(failures))
            print(f"no regression vs {args.check} "
                  f"(tolerance -{args.tolerance:.0%})")
        return

    anchor = None
    if args.anchor:
        with open(args.anchor, "r", encoding="utf-8") as handle:
            anchor = json.load(handle)
    payload = _bench(anchor=anchor, progress=print)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    agg = payload["aggregate"]
    line = (f"wrote {args.out}: geomean {agg['geomean_fps']:,.0f} f/s, "
            f"{agg['geomean_speedup_vs_scalar']:.1f}x vs scalar")
    if "geomean_speedup_vs_pre_pr" in agg:
        line += f", {agg['geomean_speedup_vs_pre_pr']:.1f}x vs pre-PR"
    print(line)


if __name__ == "__main__":  # pragma: no cover - script entry
    _main()

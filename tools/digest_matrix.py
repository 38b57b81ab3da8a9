"""Bit-identity matrix: every run of a parent revision against the working tree.

Run:  python tools/digest_matrix.py PARENT_REV

Exports ``PARENT_REV`` with ``git archive`` into a temporary directory
(the repository's ``.git`` is left untouched), then plays the same
matrix of ``simulate`` runs, 96 frames at seed 7, in a fresh process on
each side: videos V1/V3/V8/V14 x every scheme (Baseline, Batching,
Racing, Race-to-Sleep, MAB, GAB, GAB+DCC and DCC alone) x thermal
throttling off/on, plus Baseline with bit errors, the eager MACH-buffer
policy,
the display cache and the MACH buffer switched off, digest-collision
faults with and without verification (also under CO-MACH, the unbounded
MACH and thermal throttling), CO-MACH, the ``weak-sum`` digest, the
unbounded MACH, and the DRAM scheduler with no FR-FCFS quantum, and
three 600-frame runs, whose DRAM replay spans about 20 windows: V8
Baseline with and without the quantum, and V8 GAB with bit errors,
whose concealment reads are deferred draws too.  It adds ``run_fleet``
over the default
population at seed 7: 1, 8,193 and 50,001 sessions x contention on/off
x 1 and 3 shards, on one ``calibrate`` per side, and that
``calibrate`` itself (the ``FleetCalibration`` of the default
population) at calibration seeds 7 and 11, so a last-bit change in a
coefficient shows even where the fleet's quantised aggregates hide it.
Each run is reduced to the sha256 of its ``to_jsonable()`` with sorted
keys.  Where a checkout's write engine still has a scalar per-block
walk (``WritebackEngine._process_mach_scalar``), the side also counts
the frames that took it; the counts are printed (``-`` for a checkout
without the walk, 0 for a fleet or calibration run) but not compared.
Prints one line per run and exits 1 when any digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

FRAMES = 96
SEED = 7

#: Every scheme of the base matrix: the four that read no pixel (they
#: play a blank stream), the MACH schemes, and DCC alone, which reads
#: pixels without MACH.
SCHEMES = ("BASELINE", "BATCHING", "RACING", "RACE_TO_SLEEP", "MAB", "GAB",
           "GAB_DCC", "DCC_ONLY")


def _case(video: str, scheme: str, *, thermal: bool = False,
          **options: Any) -> Dict[str, Any]:
    return {"video": video, "scheme": scheme, "thermal": thermal, **options}


def _fleet_case(sessions: int, contention: bool,
                shards: int) -> Dict[str, Any]:
    return {"population": "default", "sessions": sessions,
            "contention": contention, "shards": shards}


def _calibration_case(calib_seed: int) -> Dict[str, Any]:
    return {"calibration": "default", "calib_seed": calib_seed}


def matrix() -> List[Dict[str, Any]]:
    """Every run of the matrix.  A ``simulate`` case has video, scheme
    and thermal keys; beyond them ``mach``, ``faults`` and ``dram`` are
    config overrides, ``frames`` overrides the frame count, and the rest
    are ``simulate`` keywords.  A ``run_fleet``
    case has population, sessions, contention and shards keys, and a
    ``calibrate`` case calibration and calib_seed keys."""
    cases = [_case(video, scheme, thermal=thermal)
             for video in ("V1", "V3", "V8", "V14")
             for scheme in SCHEMES
             for thermal in (False, True)]
    cases += [_case(video, scheme, buffer_policy="eager",
                    unbounded_mach=unbounded)
              for video in ("V1", "V3", "V8")
              for scheme in ("MAB", "GAB", "GAB_DCC")
              for unbounded in (False, True)]
    collision = {"digest_collision": 0.01}
    cases += [
        _case("V8", "GAB", use_display_cache=False),
        _case("V8", "GAB", use_mach_buffer=False),
        _case("V8", "GAB", unbounded_mach=True),
        _case("V8", "GAB", faults={"block_bit_error": 2e-5, **collision}),
        _case("V8", "BASELINE", faults={"block_bit_error": 2e-5}),
        _case("V3", "GAB", faults={"digest_collision": 0.02,
                                   "verify_digests": False}),
        _case("V1", "MAB", faults=collision),
        _case("V3", "GAB_DCC", faults=collision),
        _case("V1", "MAB", faults={"digest_collision": 0.02},
              buffer_policy="eager"),
        _case("V8", "GAB", mach={"co_mach": True}),
        _case("V1", "MAB", mach={"co_mach": True}),
        _case("V8", "GAB", mach={"co_mach": True}, buffer_policy="eager"),
        _case("V8", "GAB", mach={"co_mach": True}, faults=collision),
        _case("V8", "GAB", unbounded_mach=True, faults=collision),
        _case("V3", "GAB_DCC", thermal=True,
              faults={**collision, "verify_digests": False}),
        _case("V8", "GAB", mach={"digest_scheme": "weak-sum"}),
        _case("V3", "GAB_DCC", mach={"digest_scheme": "weak-sum"}),
        _case("V8", "BASELINE", dram={"scheduler_quantum": 0.0}),
        _case("V8", "GAB", dram={"scheduler_quantum": 0.0}),
        _case("V8", "BASELINE", frames=600),
        _case("V8", "BASELINE", frames=600, dram={"scheduler_quantum": 0.0}),
        _case("V8", "GAB", frames=600, faults={"block_bit_error": 2e-5}),
    ]
    cases += [_fleet_case(sessions, contention, shards)
              for sessions in (1, 8_193, 50_001)
              for contention in (True, False)
              for shards in (1, 3)]
    cases += [_calibration_case(calib_seed) for calib_seed in (7, 11)]
    return cases


def case_name(case: Dict[str, Any]) -> str:
    if "calibration" in case:
        return (f"calibrate {case['calibration']} "
                f"calib_seed={case['calib_seed']}")
    if "population" in case:
        return (f"fleet {case['population']} sessions={case['sessions']} "
                f"contention={'on' if case['contention'] else 'off'} "
                f"shards={case['shards']}")
    extras = {k: v for k, v in case.items()
              if k not in ("video", "scheme", "thermal")}
    name = f"{case['video']} {case['scheme']}"
    if case["thermal"]:
        name += " thermal"
    return name + "".join(f" {k}={json.dumps(v, sort_keys=True)}"
                          for k, v in sorted(extras.items()))


#: Runs in each checkout with its own ``src`` first on the path, so it
#: may use only API both sides have.  Reads the cases as JSON on stdin
#: and prints ``[digest, walked frames]`` per case as JSON, the count
#: None where the checkout has no walk.
_WORKER = """
import hashlib, json, sys
from dataclasses import replace
from repro import config as C
from repro.core import pipeline
from repro.core.writeback import WritebackEngine
from repro.fleet import calibrate, default_population, run_fleet
from repro.video import workload

frames, seed, cases = json.load(sys.stdin)
walk = getattr(WritebackEngine, "_process_mach_scalar", None)
unwalked = None if walk is None else 0
walked = [unwalked]
if walk is not None:
    def counting(engine, *args):
        walked[0] += 1
        return walk(engine, *args)
    WritebackEngine._process_mach_scalar = counting

def digest(result):
    canonical = json.dumps(result.to_jsonable(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

calibrations = {}
def calibrated(calib_seed):
    if calib_seed not in calibrations:
        calibrations[calib_seed] = calibrate(
            replace(default_population(), calib_seed=calib_seed))
    return calibrations[calib_seed]

population = default_population()
out = []
for case in cases:
    if "calibration" in case:
        out.append([digest(calibrated(case["calib_seed"])), unwalked])
        continue
    if "population" in case:
        result = run_fleet(population, case["sessions"], seed=seed,
                           shards=case["shards"],
                           contention=case["contention"],
                           calibration=calibrated(population.calib_seed))
        out.append([digest(result), unwalked])
        continue
    case = dict(case)
    video, scheme = case.pop("video"), getattr(C, case.pop("scheme"))
    config = C.SimulationConfig()
    if case.pop("thermal"):
        config = replace(config, thermal=C.ThermalConfig(
            enabled=True, seed=seed, event_interval=1.0, cap_drop_rate=1.0,
            cap_drop_duty=0.5, delayed_transition_rate=0.5))
    config = replace(config, mach=replace(config.mach, **case.pop("mach", {})),
                     faults=replace(config.faults, **case.pop("faults", {})),
                     dram=replace(config.dram, **case.pop("dram", {})))
    walked[0] = unwalked
    result = pipeline.simulate(workload(video), scheme,
                               n_frames=case.pop("frames", frames),
                               config=config, seed=seed, **case)
    out.append([digest(result), walked[0]])
print(json.dumps(out))
"""


def run_side(checkout: Path, cases: List[Dict[str, Any]]) -> List[List[Any]]:
    """``[digest, walked frames or None]`` of every case, simulated in
    ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _WORKER], cwd=checkout, env=env, check=False,
        input=json.dumps([FRAMES, SEED, cases]), capture_output=True,
        text=True)
    if done.returncode != 0:
        raise RuntimeError(f"simulating in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    rows: List[List[Any]] = json.loads(done.stdout)
    return rows


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       stdout=out, check=True)
    # The "data" filter (Python 3.12, backported to 3.8.17+) refuses
    # links and paths that leave ``dest``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)


def _count(walked: Optional[int]) -> str:
    return "-" if walked is None else str(walked)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python tools/digest_matrix.py",
        description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV",
                        help="git revision to compare against")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    cases = matrix()
    with tempfile.TemporaryDirectory(prefix="digest-matrix-") as tmp:
        parent_tree = Path(tmp) / "parent"
        export(args.parent, parent_tree)
        parent = run_side(parent_tree, cases)
    change = run_side(ROOT, cases)
    differ = 0
    for case, want, got in zip(cases, parent, change):
        same = want[0] == got[0]
        differ += not same
        print(f"{'identical' if same else 'DIFFERS  '} walked "
              f"{_count(want[1]):>3} -> {_count(got[1]):>3} {got[0][:16]} "
              f"{case_name(case)}", flush=True)
    print(f"{len(cases) - differ}/{len(cases)} runs identical to "
          f"{args.parent} ({FRAMES} frames unless a case sets its own, "
          f"seed {SEED})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

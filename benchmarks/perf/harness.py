"""Run one workload in fresh worker processes and summarise it.

Workers run one at a time, single-threaded, with the checkout's
``src/`` first on their path and their bytecode cache under
``.bench_build/`` so that no tracked file is rewritten.  Every host
time is scaled to the reference probe speed (:mod:`.probe`); raw wall
times and probe times are kept beside the scaled ones.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .probe import to_ref
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"

#: Fresh workers whose set-up times give the ``setup_s`` median.
SETUP_WORKERS = 3

#: Wall-clock budget for all the workers of one workload.
BUDGET_S = 170.0

#: Least share of the traced time that the layer self times must explain.
MIN_COVERAGE = 0.95


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed repetition)."""


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference() -> Dict[str, Any]:
    """``reference.json``: the probe reference time and pinned digests."""
    return load_json(HERE / "reference.json")


def benchmark_spec() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    return load_json(ROOT / "BENCHMARK.json")


def require_program() -> None:
    """Fail unless the simulator's sources are in this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no simulator sources under {ROOT / 'src'}")


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD_DIR / "pycache")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def compile_sources() -> None:
    """Byte-compile once, so no worker's set-up pays for compilation."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"),
         str(HERE)],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
        timeout=120, check=False)
    if done.returncode != 0:
        raise HarnessError("byte-compiling the sources failed:\n"
                           + done.stdout[-2000:])


def spawn(args: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("workload ran out of its time budget")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.perf.worker", json.dumps(args)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {args} timed out") from exc
    if done.returncode != 0:
        raise HarnessError(f"worker {args} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_failures(digests: Sequence[Optional[str]],
                   expected: Optional[str]) -> int:
    """Repetitions that raised (``None``) or whose digest is off.

    The expected digest is the pinned one where it applies, otherwise
    the first digest seen: every repetition, worker and traced pass of
    one seed must agree bit for bit.
    """
    want = expected or next((d for d in digests if d is not None), None)
    return sum(1 for d in digests if d is None or d != want)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and count."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def trace_sound(traced: Dict[str, Any]) -> bool:
    """Whether a traced pass can be trusted.

    Every wrapper must be restored, the layer self times must explain
    at least ``MIN_COVERAGE`` of the traced time, and the tracer's own
    share must be a real share (not negative).
    """
    metrics = traced["metrics"]
    return (traced["restored"]
            and metrics["trace.coverage"] >= MIN_COVERAGE
            and metrics["trace.overhead_frac"] >= 0.0)


def pinned_digest(name: str, seed: int, canary: str,
                  ref: Dict[str, Any]) -> Optional[str]:
    """The pinned digest when it applies to this seed and host."""
    if seed != ref["seed"] or canary != ref["canary"]:
        return None
    return ref["digests"].get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_workers: int = SETUP_WORKERS) -> Dict[str, Any]:
    """Measure (and, with ``trace``, trace) one workload.

    The measuring worker is the first of the ``setup_workers`` fresh
    workers whose set-up times are reported; pass ``setup_workers=1``
    to time only its own set-up.
    """
    workload = WORKLOADS[name]
    ref = reference()
    deadline = time.monotonic() + BUDGET_S
    main = spawn({"workload": name, "seed": seed, "seconds": seconds,
                  "mode": "trace" if trace else "measure",
                  "ref_probe_s": ref["ref_probe_s"]}, deadline)
    setups = [main] + [
        spawn({"workload": name, "seed": seed, "mode": "setup"}, deadline)
        for _ in range(setup_workers - 1)]

    reps = main["reps"]
    rep_ref_s = [to_ref(r["wall_s"], r["probe_s"], ref["ref_probe_s"])
                 for r in reps]
    good = [t for t, r in zip(rep_ref_s, reps) if "error" not in r]
    digests: List[Optional[str]] = [r.get("digest") for r in reps]
    if trace:
        digests.extend(main["trace"]["digests"])
    expected = pinned_digest(name, seed, main["canary"], ref)
    failed = count_failures(digests, expected)
    setup_ref_s = [to_ref(s["setup_wall_s"], s["setup_probe_s"],
                          ref["ref_probe_s"]) for s in setups]
    end_to_end = {
        "throughput_per_s": quartiles(
            [workload.items / t for t in good] or [0.0]),
        "setup_s": quartiles(setup_ref_s),
        "peak_rss_mb": quartiles([main["peak_rss_mb"]]),
    }
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "correct": failed == 0 and (not trace or trace_sound(main["trace"])),
        "attempted": len(digests),
        "failed": failed,
        "end_to_end": end_to_end,
        "detail": {
            "item": workload.item,
            "items_per_rep": workload.items,
            "rep_wall_s": [r["wall_s"] for r in reps],
            "rep_ref_s": rep_ref_s,
            "probe_ms": [r["probe_s"] * 1000.0 for r in reps],
            "setup_wall_s": [s["setup_wall_s"] for s in setups],
            "setup_probe_ms": [s["setup_probe_s"] * 1000.0 for s in setups],
            "digest": next((d for d in digests if d is not None), None),
            "pinned_digest_checked": expected is not None,
            "canary": main["canary"],
            "errors": [r["error"] for r in reps if "error" in r],
        },
    }
    if trace:
        traced = main["trace"]
        record["per_layer"] = traced["metrics"]
        record["detail"]["ledger"] = traced["ledger"]
        record["detail"]["trace_probe_ms"] = traced["probe_ms"]
        record["detail"]["wrappers_restored"] = traced["restored"]
        record["spans"] = traced["spans"]
    return record


def host() -> Dict[str, Any]:
    """What the numbers were measured on."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count()}

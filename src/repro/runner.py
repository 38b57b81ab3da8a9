"""Supervised parallel experiment runner.

The benchmark suite runs at a reduced frame count so it finishes in
minutes; reproducing the paper at the *full* Table 1 frame counts
(70 K+ frames across schemes) is embarrassingly parallel across
(video, scheme) pairs.  :func:`run_matrix` runs those jobs on the
repository's supervised executor (:mod:`repro.executor`) and returns
the results keyed by pair.

A multi-hour matrix must also survive the real world: one crashing
worker must not take down the other 95 jobs, a wedged worker must not
hold the pool forever, and a power cut must not discard completed
work.  The executor gives every job a lease that heartbeats renew,
retries a job whose worker died, stalled or delivered a corrupt payload
(bounded retries, seeded exponential backoff), and persists finished
jobs to a checkpoint that a rerun resumes from.  A job whose simulation
raises is not retried — it would raise again — and lands in
``MatrixResult.errors``.

Simulations are deterministic, so the parallel matrix — and a
checkpoint-resumed one — is bit-identical to direct ``simulate`` calls.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .config import FIG11_SCHEMES, SchemeConfig, SimulationConfig
from .core.pipeline import simulate
from .core.results import RunResult
from .errors import ReproError, RunnerError
from .executor import (
    Checkpoint,
    Payload,
    Supervisor,
    SupervisorConfig,
    usable_workers,
)
from .video import workload, workload_keys

MatrixKey = Tuple[str, str]  # (video key, scheme name)


@dataclass
class MatrixResult(Mapping):
    """A matrix run's results plus the jobs that did not survive.

    Behaves as a read-only mapping ``{(video, scheme): RunResult}`` of
    the *successful* jobs, so existing callers that iterate or index a
    plain dict keep working; supervision outcomes live alongside:

    * ``errors`` — ``{(video, scheme): "ExcType: message"}`` for jobs
      whose simulation raised or whose retries ran out (always a
      ``repro.errors`` type: foreign exceptions are wrapped into
      ``RunnerError`` at the isolation boundary);
    * ``retried`` — jobs that lost at least one attempt (worker crash,
      lease expiry, corrupt payload) but recovered;
    * ``resumed`` — jobs loaded from a checkpoint instead of run;
    * ``quarantined`` — ``{moved-to path: reason}`` for checkpoint
      files that were unusable (corrupt, truncated, or written by a
      different matrix) and were set aside instead of trusted.
    """

    results: Dict[MatrixKey, RunResult] = field(default_factory=dict)
    errors: Dict[MatrixKey, str] = field(default_factory=dict)
    retried: List[MatrixKey] = field(default_factory=list)
    resumed: List[MatrixKey] = field(default_factory=list)
    quarantined: Dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: MatrixKey) -> RunResult:
        return self.results[key]

    def __iter__(self) -> Iterator[MatrixKey]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class _MatrixJob:
    """One (video, scheme) simulation of the matrix."""

    video: str
    scheme: SchemeConfig
    n_frames: Optional[int]
    seed: int
    config: Optional[SimulationConfig]

    @property
    def key(self) -> MatrixKey:
        return self.video, self.scheme.name


def _run_job(job: _MatrixJob) -> Payload:
    """Worker side: one simulation, shipped as its lossless JSON form."""
    return simulate(workload(job.video), job.scheme, n_frames=job.n_frames,
                    seed=job.seed, config=job.config).to_jsonable()


def _fingerprint(value: object) -> str:
    """Content hash of a frozen config dataclass (its ``repr`` lists
    every field, nested configs included, floats exactly)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _failure_message(exc: BaseException) -> str:
    """Describe a failed job with a ``repro.errors`` type.

    Deliberate simulator failures already carry their typed class; a
    foreign exception (a bug, a numpy error, a KeyError from a bad
    workload key) is re-wrapped into :class:`RunnerError` at this
    boundary so ``MatrixResult.errors`` never exposes raw exception
    types to downstream consumers.
    """
    if isinstance(exc, ReproError):
        return f"{type(exc).__name__}: {exc}"
    wrapped = RunnerError(f"job raised {type(exc).__name__}: {exc}")
    return f"{type(wrapped).__name__}: {wrapped}"


def run_matrix(
    videos: Optional[Sequence[str]] = None,
    schemes: Sequence[SchemeConfig] = FIG11_SCHEMES,
    n_frames: Optional[int] = None,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    processes: Optional[int] = None,
    checkpoint: Optional[str] = None,
) -> MatrixResult:
    """Run every (video, scheme) pair under supervision.

    Args:
        videos: workload keys (default: all 16).
        schemes: scheme configurations (default: the Fig. 11 six).
        n_frames: frames per video (None = each video's full Table 1
            length — the multi-hour full reproduction).
        seed: content seed shared across the matrix.
        config: simulation configuration.
        processes: worker processes.  ``None`` (the default) uses one
            per usable CPU, at most one per job
            (:func:`repro.executor.usable_workers`).
        checkpoint: JSON file to persist finished jobs to.  If it
            already exists (same matrix meta), its jobs are loaded
            instead of re-run, so a killed matrix resumes where it
            stopped — bit-identically, since simulations are
            deterministic.  The meta fingerprints everything a job
            reads: ``n_frames``, ``seed``, the full ``config`` and
            every scheme's definition; the video list may grow or
            shrink between resumes.  Checkpointed jobs outside the
            requested matrix (a stale superset) are ignored, not
            merged.  A corrupt, truncated, or wrong-matrix checkpoint
            is quarantined to ``<checkpoint>.corrupt`` (recorded in
            ``MatrixResult.quarantined``) and the matrix starts fresh
            instead of raising.

    Returns:
        A :class:`MatrixResult` — mapping of successful
        ``{(video_key, scheme_name): RunResult}`` plus ``errors``.
    """
    keys = list(videos) if videos is not None else list(workload_keys())
    jobs = [_MatrixJob(video, scheme, n_frames, seed, config)
            for video in keys for scheme in schemes]
    matrix = MatrixResult()

    def accept(job: _MatrixJob, payload: Payload) -> bool:
        if job.key in matrix.results:
            return False
        matrix.results[job.key] = RunResult.from_jsonable(payload)
        return True

    store: Optional[Checkpoint] = None
    if checkpoint is not None:
        meta: Dict[str, object] = {
            "n_frames": n_frames,
            "seed": seed,
            "config": _fingerprint(config or SimulationConfig()),
            "schemes": {scheme.name: _fingerprint(scheme)
                        for scheme in schemes},
        }
        store = Checkpoint(checkpoint, meta, [job.key for job in jobs])
        matrix.quarantined = store.quarantined
    workers = (processes if processes is not None
               else usable_workers(len(jobs)))
    outcomes = Supervisor(jobs, _run_job, accept,
                          SupervisorConfig(workers=workers), seed=seed,
                          checkpoint=store).run()

    done = matrix.results
    matrix.results = {job.key: done[job.key] for job in jobs
                      if job.key in done}
    for job in jobs:
        outcome = outcomes[job.key]
        if outcome.error is not None:
            matrix.errors[job.key] = _failure_message(outcome.error)
        elif outcome.resumed:
            matrix.resumed.append(job.key)
        elif outcome.failures:
            matrix.retried.append(job.key)
    return matrix


def normalized_matrix(
    results: Mapping,
    baseline_name: str = "Baseline",
) -> Dict[str, Dict[str, float]]:
    """Reduce a matrix to {video: {scheme: normalized energy}}."""
    videos = sorted({video for video, _ in results},
                    key=lambda key: (len(key), key))
    table: Dict[str, Dict[str, float]] = {}
    for video in videos:
        if (video, baseline_name) not in results:
            available = sorted(scheme for v, scheme in results
                               if v == video)
            raise ReproError(
                f"cannot normalize video {video!r}: no "
                f"{baseline_name!r} run in the matrix (schemes present: "
                f"{available}); run the baseline scheme or pass "
                "baseline_name=")
        base = results[video, baseline_name].energy.total
        table[video] = {
            scheme: run.energy.total / base
            for (v, scheme), run in results.items() if v == video
        }
    return table

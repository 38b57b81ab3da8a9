"""Tests for the supervised parallel experiment runner."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import repro.runner as runner_mod
from repro.config import (
    BASELINE,
    GAB,
    GAB_DCC,
    PaperCalibration,
    SchemeConfig,
    SimulationConfig,
)
from repro.core.pipeline import simulate
from repro.errors import ReproError, RunnerError
from repro.executor import (
    SITE_TASK_RETRY,
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    backoff_delay,
)
from repro.faults import ShardFaultConfig, ShardFaultPlan
from repro.runner import MatrixResult, normalized_matrix, run_matrix
from repro.video import workload
from tests.test_executor import Square, fast_config, square


def _crash_first_attempts(monkeypatch, tmp_path, crashes, key=None):
    """Make the first ``crashes`` attempts of job ``key`` (every job
    when None) kill their worker; a marker file counts the attempts
    across the forked workers."""
    real = runner_mod._run_job
    marker = tmp_path / "attempts"

    def crashing(job):
        if key is None or job.key == key:
            with open(marker, "a") as handle:
                handle.write("x")
            if len(marker.read_text()) <= crashes:
                os._exit(3)
        return real(job)

    monkeypatch.setattr(runner_mod, "_run_job", crashing)
    return marker


class TestRunMatrix:
    def test_inline_matrix(self):
        results = run_matrix(videos=["V8"], schemes=(BASELINE, GAB),
                             n_frames=16, seed=2)
        assert set(results) == {("V8", "Baseline"), ("V8", "GAB")}
        assert results["V8", "GAB"].n_frames == 16

    def test_parallel_matches_inline(self):
        kwargs = dict(videos=["V8", "V1"], schemes=(BASELINE, GAB, GAB_DCC),
                      n_frames=32, seed=2)
        direct = {
            (video, scheme.name): simulate(
                workload(video), scheme, n_frames=32, seed=2).to_jsonable()
            for video in kwargs["videos"] for scheme in kwargs["schemes"]}
        for processes in (1, 2):
            matrix = run_matrix(processes=processes, **kwargs)
            assert multiprocessing.active_children() == []
            assert list(matrix) == list(direct)
            for key, expected in direct.items():
                assert matrix[key].to_jsonable() == expected

    def test_normalized_matrix(self):
        results = run_matrix(videos=["V8"], schemes=(BASELINE, GAB),
                             n_frames=16, seed=2)
        table = normalized_matrix(results)
        assert table["V8"]["Baseline"] == pytest.approx(1.0)
        assert 0 < table["V8"]["GAB"] < 1.5

    def test_normalized_matrix_names_missing_baseline(self):
        results = run_matrix(videos=["V8"], schemes=(GAB,),
                             n_frames=16, seed=2)
        with pytest.raises(ReproError, match="Baseline.*V8|V8.*Baseline"):
            normalized_matrix(results)


class TestSupervision:
    def test_crashing_job_isolated(self):
        matrix = run_matrix(videos=["V8", "BOGUS"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1)
        assert set(matrix) == {("V8", "Baseline")}
        assert ("BOGUS", "Baseline") in matrix.errors
        assert "BOGUS" in matrix.errors["BOGUS", "Baseline"]
        assert not matrix.ok

    def test_crashing_job_isolated_in_pool(self):
        matrix = run_matrix(videos=["V8", "BOGUS"],
                            schemes=(BASELINE, GAB),
                            n_frames=16, seed=2, processes=2)
        assert set(matrix) == {("V8", "Baseline"), ("V8", "GAB")}
        assert len(matrix.errors) == 2

    def test_dead_worker_is_retried_and_isolated(self, monkeypatch,
                                                 tmp_path):
        """A worker that dies takes down only its own attempt: the
        other jobs complete and the dead one is retried."""
        _crash_first_attempts(monkeypatch, tmp_path, 1, key=("V8", "GAB"))
        matrix = run_matrix(videos=["V8", "V1"], schemes=(BASELINE, GAB),
                            n_frames=16, seed=2, processes=2)
        assert matrix.ok
        assert len(matrix) == 4
        assert matrix.retried == [("V8", "GAB")]

    def test_retries_bounded(self, monkeypatch, tmp_path):
        # A raising job is not retried: it would raise again.
        matrix = run_matrix(videos=["BOGUS"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1)
        assert ("BOGUS", "Baseline") in matrix.errors
        assert not matrix.retried
        # A worker that dies on every attempt exhausts max_retries.
        _crash_first_attempts(monkeypatch, tmp_path, 99)
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1)
        assert "max_retries" in matrix.errors["V8", "Baseline"]
        assert not matrix

    def test_mapping_protocol(self):
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1)
        assert isinstance(matrix, MatrixResult)
        assert len(matrix) == 1
        assert ("V8", "Baseline") in matrix
        assert matrix.get(("V8", "nope")) is None
        assert dict(matrix.items())


class TestCheckpointing:
    def test_resume_is_bit_identical(self, tmp_path):
        ckpt = str(tmp_path / "matrix.json")
        kwargs = dict(schemes=(BASELINE, GAB), n_frames=16, seed=2,
                      processes=1)
        # "Killed" run: only V8 finished before the interruption.
        run_matrix(videos=["V8"], checkpoint=ckpt, **kwargs)
        resumed = run_matrix(videos=["V8", "V1"], checkpoint=ckpt,
                             **kwargs)
        fresh = run_matrix(videos=["V8", "V1"], **kwargs)
        assert sorted(resumed.resumed) == [("V8", "Baseline"),
                                           ("V8", "GAB")]
        assert set(resumed) == set(fresh)
        for key in fresh:
            assert resumed[key].to_jsonable() == fresh[key].to_jsonable()

    def test_checkpoint_written_atomically(self, tmp_path):
        ckpt = str(tmp_path / "matrix.json")
        run_matrix(videos=["V8"], schemes=(BASELINE,), n_frames=16,
                   seed=2, processes=1, checkpoint=ckpt)
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".tmp")
        data = json.loads(open(ckpt).read())
        assert data["version"] == 2
        assert len(data["completed"]) == 1

    def test_mismatched_checkpoint_quarantined(self, tmp_path):
        ckpt = str(tmp_path / "matrix.json")
        run_matrix(videos=["V8"], schemes=(BASELINE,), n_frames=16,
                   seed=2, processes=1, checkpoint=ckpt)
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=3, processes=1,
                            checkpoint=ckpt)
        assert set(matrix) == {("V8", "Baseline")}
        assert not matrix.resumed
        assert list(matrix.quarantined) == [ckpt + ".corrupt"]
        assert "different run" in matrix.quarantined[ckpt + ".corrupt"]
        assert os.path.exists(ckpt + ".corrupt")
        # The fresh run rewrote a valid checkpoint for the new matrix.
        data = json.loads(open(ckpt).read())
        assert data["meta"]["seed"] == 3

    @pytest.mark.parametrize("change", [
        {"config": SimulationConfig(calibration=PaperCalibration(
            other_traffic_fraction=0.5))},
        {"schemes": (SchemeConfig(name="GAB", batch_size=8, racing=True,
                                  content_cache="gab",
                                  display_caching=True),)},
    ], ids=["config", "scheme-definition"])
    def test_checkpoint_bound_to_what_jobs_read(self, tmp_path, change):
        """A checkpoint written under one config (or one definition of
        a scheme name) must not be resumed under another."""
        ckpt = str(tmp_path / "matrix.json")
        kwargs = dict(videos=["V1"], schemes=(GAB,), n_frames=16, seed=1,
                      processes=1)
        run_matrix(checkpoint=ckpt, **kwargs)
        kwargs.update(change)
        resumed = run_matrix(checkpoint=ckpt, **kwargs)
        fresh = run_matrix(**kwargs)
        assert not resumed.resumed
        assert "different run" in resumed.quarantined[ckpt + ".corrupt"]
        assert (resumed["V1", "GAB"].to_jsonable()
                == fresh["V1", "GAB"].to_jsonable())

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        ckpt = tmp_path / "matrix.json"
        ckpt.write_text("{not json")
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1,
                            checkpoint=str(ckpt))
        assert set(matrix) == {("V8", "Baseline")}
        quarantine = str(ckpt) + ".corrupt"
        assert list(matrix.quarantined) == [quarantine]
        assert "not valid JSON" in matrix.quarantined[quarantine]
        assert open(quarantine).read() == "{not json"

    def test_truncated_checkpoint_starts_fresh(self, tmp_path):
        ckpt = str(tmp_path / "matrix.json")
        kwargs = dict(videos=["V8"], schemes=(BASELINE,), n_frames=16,
                      seed=2, processes=1)
        run_matrix(checkpoint=ckpt, **kwargs)
        text = open(ckpt).read()
        with open(ckpt, "w") as handle:
            handle.write(text[:len(text) // 2])  # simulated power cut
        resumed = run_matrix(checkpoint=ckpt, **kwargs)
        fresh = run_matrix(**kwargs)
        assert not resumed.resumed
        assert resumed.quarantined
        key = ("V8", "Baseline")
        assert resumed[key].energy.total == fresh[key].energy.total

    def test_invalid_entry_quarantined(self, tmp_path):
        ckpt = str(tmp_path / "matrix.json")
        run_matrix(videos=["V8"], schemes=(BASELINE,), n_frames=16,
                   seed=2, processes=1, checkpoint=ckpt)
        data = json.loads(open(ckpt).read())
        del data["completed"][0]["payload"]["energy"]
        with open(ckpt, "w") as handle:
            json.dump(data, handle)
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1,
                            checkpoint=ckpt)
        assert set(matrix) == {("V8", "Baseline")}
        assert not matrix.resumed
        reason = matrix.quarantined[ckpt + ".corrupt"]
        assert "completed[0]" in reason


class TestRetryBackoff:
    def _recorded_delays(self, monkeypatch):
        import repro.executor as executor_mod
        recorded = []

        def recording(*args, **kwargs):
            delay = backoff_delay(*args, **kwargs)
            recorded.append(delay)
            return delay

        monkeypatch.setattr(executor_mod, "backoff_delay", recording)
        return recorded

    def test_backoff_schedule_is_seeded_and_exponential(
            self, monkeypatch, tmp_path):
        defaults = SupervisorConfig()
        expected = [backoff_delay(2, SITE_TASK_RETRY, 0, attempt,
                                  base=defaults.backoff_base,
                                  cap=defaults.backoff_cap)
                    for attempt in range(2)]
        for _ in range(2):  # a rerun sleeps the same schedule
            recorded = self._recorded_delays(monkeypatch)
            marker = _crash_first_attempts(monkeypatch, tmp_path, 2)
            matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                                n_frames=16, seed=2, processes=1)
            assert matrix.retried == [("V8", "Baseline")]
            assert recorded == expected
            marker.unlink()
        # Monotone growth: jitter never outweighs the doubling.
        assert expected[0] < expected[1]

    def test_zero_base_disables_backoff(self):
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=1.0, max_faulty_attempts=2, seed=0))
        report = SupervisionReport()
        outcomes = Supervisor([Square(3)], square, lambda task, p: True,
                              fast_config(backoff_base=0.0), plan=plan,
                              report=report).run()
        assert outcomes["toy", 3].failures == 2
        scheduled = [event.detail for event in report.events
                     if event.kind == "retry_scheduled"]
        assert scheduled == ["after 0.000s backoff"] * 2

    def test_no_backoff_without_failures(self, monkeypatch):
        recorded = self._recorded_delays(monkeypatch)
        matrix = run_matrix(videos=["V8"], schemes=(BASELINE,),
                            n_frames=16, seed=2, processes=1)
        assert recorded == []
        assert matrix.ok and not matrix.retried


class TestCheckpointEdgeCases:
    def test_superset_checkpoint_stale_jobs_ignored(self, tmp_path):
        """Meta matches but the checkpoint holds a strict superset of
        the requested matrix: stale jobs must be ignored, not merged."""
        ckpt = str(tmp_path / "matrix.json")
        kwargs = dict(schemes=(BASELINE, GAB), n_frames=16, seed=2,
                      processes=1)
        run_matrix(videos=["V8", "V1"], checkpoint=ckpt, **kwargs)
        matrix = run_matrix(videos=["V8"], checkpoint=ckpt, **kwargs)
        assert set(matrix) == {("V8", "Baseline"), ("V8", "GAB")}
        assert sorted(matrix.resumed) == [("V8", "Baseline"),
                                          ("V8", "GAB")]
        assert not matrix.quarantined
        assert all(video == "V8" for video, _ in matrix)

    def test_readonly_checkpoint_dir_raises(self, tmp_path,
                                            monkeypatch):
        """A corrupt checkpoint that cannot be quarantined (read-only
        directory) must raise instead of silently dropping durability.

        The rename failure is injected because the suite may run as
        root, which a read-only directory bit does not stop.
        """
        import repro.executor as executor_mod
        ckpt = tmp_path / "matrix.json"
        ckpt.write_text("{not json")

        def denied(src, dst):
            raise OSError(30, "Read-only file system", src)

        monkeypatch.setattr(executor_mod.os, "replace", denied)
        with pytest.raises(RunnerError, match="cannot quarantine"):
            run_matrix(videos=["V8"], schemes=(BASELINE,), n_frames=16,
                       seed=2, processes=1, checkpoint=str(ckpt))
        # The evidence file must still be in place, untouched.
        assert ckpt.read_text() == "{not json"

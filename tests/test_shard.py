"""Supervised shard execution: the crash-invariant exact-merge contract.

The headline invariant under test: for any seeded kill/stall/corrupt
schedule in which the run completes, the supervised fleet result is
bit-identical to the undisturbed serial (``shards=1``) run — including
after a mid-run kill plus checkpoint resume.
"""

import json
import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.test_fleet import smoke_spec, tiny_spec

from repro.errors import FleetError, RunnerError, ShardError
from repro.executor import (
    SITE_TASK_RETRY,
    Checkpoint,
    TaskEvent,
    _damaged,
    backoff_delay,
    checksum,
    seal,
    unseal,
)
from repro.faults import (
    FaultError,
    ShardFault,
    ShardFaultConfig,
    ShardFaultPlan,
)
from repro.fleet import (
    PHASE_LOAD,
    PHASE_SCORE,
    MergePlane,
    StripePartial,
    SupervisorConfig,
    default_population,
    execute_stripe,
    run_fleet,
    run_fleet_supervised,
    validate_partial,
)
from repro.fleet.shard import (
    StripeTask,
    StripeWorld,
    make_tasks,
    plan_stripes,
)
from repro.fleet.surrogate import calibrate


@pytest.fixture(scope="module")
def spec():
    return tiny_spec()


@pytest.fixture(scope="module")
def calib(spec):
    return calibrate(spec)


@pytest.fixture(scope="module")
def world(spec, calib):
    bounds, _ = plan_stripes(600, 3)
    return StripeWorld(spec=spec, seed=5, bounds=bounds,
                       tables=calib.coefficient_arrays(spec),
                       fps=30.0, field=None)


def _json(result):
    return json.dumps(result.to_jsonable(), sort_keys=True)


def _supervisor(**overrides):
    """Fast-protocol knobs suited to a 1-CPU CI box."""
    defaults = dict(workers=2, lease_seconds=0.6, heartbeat_seconds=0.1,
                    max_retries=6, backoff_base=0.02, backoff_cap=0.2,
                    speculation_min_seconds=0.3)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class TestFaultPlan:
    def test_rates_must_be_sane(self):
        with pytest.raises(FaultError):
            ShardFaultConfig(crash_rate=-0.1)
        with pytest.raises(FaultError):
            ShardFaultConfig(crash_rate=0.6, stall_rate=0.6)

    def test_disabled_plan_is_none(self):
        assert ShardFaultPlan.from_config(None) is None
        assert ShardFaultPlan.from_config(ShardFaultConfig()) is None

    def test_order_free_and_phase_independent(self):
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=0.25, stall_rate=0.25, corrupt_rate=0.25,
            slow_rate=0.25, max_faulty_attempts=10, seed=3))
        draws = [plan.stripe_fault("load", s, a)
                 for s in range(20) for a in range(3)]
        again = [plan.stripe_fault("load", s, a)
                 for s in range(20) for a in range(3)]
        assert draws == again
        load = [plan.stripe_fault("load", s, 0) for s in range(50)]
        score = [plan.stripe_fault("score", s, 0) for s in range(50)]
        assert load != score  # phases draw independently

    def test_faults_stop_after_max_attempts(self):
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=1.0, max_faulty_attempts=2, seed=0))
        assert plan.stripe_fault("load", 0, 0) is ShardFault.CRASH
        assert plan.stripe_fault("load", 0, 1) is ShardFault.CRASH
        assert plan.stripe_fault("load", 0, 2) is None


class TestStripePartials:
    def test_execute_is_pure(self, world):
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0,
                          chunks=(0,))
        first = execute_stripe(world, task)
        second = execute_stripe(world, task)
        assert first == second
        validate_partial(world, task, first)

    def test_tampering_is_detected(self, world):
        for phase in (PHASE_LOAD, PHASE_SCORE):
            task = StripeTask(phase=phase, stripe_id=0, chunks=(0,))
            sealed = seal(task.key, execute_stripe(world, task).to_jsonable())
            with pytest.raises(ValueError, match="checksum"):
                unseal(_damaged(sealed))

    def test_wrong_task_is_rejected(self, world):
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0, chunks=(0,))
        other = StripeTask(phase=PHASE_SCORE, stripe_id=1, chunks=(0,))
        partial = execute_stripe(world, task)
        with pytest.raises(FleetError, match="does not answer"):
            validate_partial(world, other, partial)

    def test_roundtrip_checksum_verified(self, world):
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0, chunks=(0,))
        partial = execute_stripe(world, task)
        sealed = seal(task.key, partial.to_jsonable())
        key, payload = unseal(json.loads(json.dumps(sealed)))
        assert key == task.key
        assert StripePartial.from_jsonable(payload) == partial
        broken = json.loads(json.dumps(sealed))
        broken["payload"]["payload"]["cohorts"]["fleet"]["moments"][
            "total_energy"]["q_sum"] += 1
        with pytest.raises(ValueError, match="checksum"):
            unseal(broken)


class TestMergePlane:
    def test_duplicates_fold_once(self, spec, world):
        plane = MergePlane(spec, seed=5)
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0, chunks=(0,))
        partial = execute_stripe(world, task)
        assert plane.offer_partial(world, task, partial)
        assert not plane.offer_partial(world, task, partial)
        assert plane.duplicates_dropped == 1

    def test_corrupt_partial_never_touches_state(self, spec, world):
        plane = MergePlane(spec, seed=5)
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0, chunks=(0,))
        broken = json.loads(json.dumps(
            execute_stripe(world, task).to_jsonable()))
        broken["payload"]["cohorts"]["fleet"]["moments"][
            "total_energy"]["count"] += 1  # a session invented
        with pytest.raises(FleetError, match="sessions"):
            plane.offer_partial(world, task,
                                StripePartial.from_jsonable(broken))
        # The stripe is still unmerged: the clean retry must fold.
        assert plane.offer_partial(world, task,
                                   execute_stripe(world, task))

    def test_near_equal_quantum_rejected(self, spec, world):
        # Moments merge only on an identical grid, so a partial on a
        # nearby one must fail validation, before any state is merged.
        plane = MergePlane(spec, seed=5)
        task = StripeTask(phase=PHASE_SCORE, stripe_id=0, chunks=(0,))
        broken = json.loads(json.dumps(
            execute_stripe(world, task).to_jsonable()))
        broken["payload"]["cohorts"]["title:V8"]["moments"][
            "stall_seconds"]["quantum"] = 1.000001e-3
        with pytest.raises(FleetError, match="quantum"):
            plane.offer_partial(world, task,
                                StripePartial.from_jsonable(broken))
        assert plane.offer_partial(world, task,
                                   execute_stripe(world, task))

    def test_result_requires_merged_stripes(self, spec):
        plane = MergePlane(spec, seed=5)
        with pytest.raises(ShardError):
            plane.result(n_sessions=10, contention=False)
        with pytest.raises(ShardError):
            plane.finalize_load()


class TestBackoffPolicy:
    def test_deterministic_and_bounded(self):
        delays = [backoff_delay(7, SITE_TASK_RETRY, 3, attempt,
                                base=0.1, cap=2.0)
                  for attempt in range(8)]
        again = [backoff_delay(7, SITE_TASK_RETRY, 3, attempt,
                               base=0.1, cap=2.0)
                 for attempt in range(8)]
        assert delays == again
        for attempt, delay in enumerate(delays):
            scale = min(2.0, 0.1 * 2.0 ** attempt)
            assert 0.5 * scale <= delay < scale
        assert backoff_delay(7, SITE_TASK_RETRY, 3, 4,
                             base=0.0, cap=2.0) == 0.0

    def test_indices_decorrelate(self):
        delays = {backoff_delay(7, SITE_TASK_RETRY, index, 0,
                                base=0.5, cap=8.0)
                  for index in range(16)}
        assert len(delays) == 16


class TestSupervisedRuns:
    def test_unfaulted_supervised_matches_serial(self, spec, calib):
        serial = run_fleet(spec, 400, seed=5, shards=1,
                           calibration=calib)
        run = run_fleet_supervised(spec, 400, seed=5, shards=3,
                                   calibration=calib,
                                   supervisor=_supervisor())
        assert multiprocessing.active_children() == []
        assert _json(run.result) == _json(serial)
        assert run.report.faults_absorbed == 0

    def test_single_worker_matches_serial(self, spec, calib):
        serial = run_fleet(spec, 400, seed=5, shards=1,
                           calibration=calib)
        run = run_fleet_supervised(
            spec, 400, seed=5, shards=3, calibration=calib,
            faults=ShardFaultConfig(crash_rate=0.4, corrupt_rate=0.2,
                                    max_faulty_attempts=2, seed=3),
            supervisor=_supervisor(workers=1, backoff_base=0.0))
        assert _json(run.result) == _json(serial)
        assert run.report.faults_absorbed > 0

    def test_retry_exhaustion_raises(self, spec, calib):
        with pytest.raises(ShardError, match="max_retries"):
            run_fleet_supervised(
                spec, 400, seed=5, shards=2, contention=False,
                calibration=calib,
                faults=ShardFaultConfig(crash_rate=1.0,
                                        max_faulty_attempts=99,
                                        seed=0),
                supervisor=_supervisor(backoff_base=0.0,
                                       max_retries=2))

    def test_lease_revokes_stalled_worker(self, spec, calib):
        serial = run_fleet(spec, 400, seed=5, shards=1, contention=False,
                           calibration=calib)
        run = run_fleet_supervised(
            spec, 400, seed=5, shards=2, contention=False,
            calibration=calib,
            faults=ShardFaultConfig(stall_rate=1.0,
                                    max_faulty_attempts=1, seed=0),
            supervisor=_supervisor())
        assert multiprocessing.active_children() == []
        assert run.report.lease_revocations == 2
        assert _json(run.result) == _json(serial)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 4))
    @settings(max_examples=5, deadline=None)
    def test_chaos_schedules_are_bit_invariant(self, spec, calib,
                                               chaos_seed, shards):
        """The headline invariant, swept over seeded fault schedules."""
        serial = run_fleet(spec, 500, seed=5, shards=1,
                           calibration=calib)
        run = run_fleet_supervised(
            spec, 500, seed=5, shards=shards, calibration=calib,
            faults=ShardFaultConfig(crash_rate=0.3, stall_rate=0.15,
                                    corrupt_rate=0.2, slow_rate=0.1,
                                    slow_seconds=0.2,
                                    max_faulty_attempts=2,
                                    seed=chaos_seed),
            supervisor=_supervisor())
        assert _json(run.result) == _json(serial)

    def test_kill_then_checkpoint_resume_is_bit_identical(
            self, spec, calib, tmp_path):
        serial = run_fleet(spec, 500, seed=5, shards=1,
                           calibration=calib)
        ckpt = str(tmp_path / "fleet.ckpt.json")
        faults = ShardFaultConfig(crash_rate=0.3, corrupt_rate=0.2,
                                  max_faulty_attempts=2, seed=11)
        with pytest.raises(RunnerError, match="halted"):
            run_fleet_supervised(
                spec, 500, seed=5, shards=4, calibration=calib,
                faults=faults, checkpoint=ckpt,
                supervisor=_supervisor(halt_after_tasks=2))
        assert os.path.exists(ckpt)
        run = run_fleet_supervised(spec, 500, seed=5, shards=4,
                                   calibration=calib, faults=faults,
                                   checkpoint=ckpt,
                                   supervisor=_supervisor())
        assert run.report.resumed >= 2
        assert _json(run.result) == _json(serial)


class TestSupervisionBudgets:
    """5,000 sessions of the smoke population and 50,000 of the default
    one, at seed 7: supervision is cheap, absorbs a seeded chaos
    schedule, and speculation cuts the straggler tail, all without
    changing a bit of the result."""

    @pytest.fixture(scope="class", params=[(smoke_spec, 5000),
                                           (default_population, 50_000)],
                    ids=["smoke", "default"])
    def population(self, request):
        make_spec, sessions = request.param
        spec = make_spec()
        return spec, calibrate(spec), sessions

    def test_overhead_within_budget(self, population):
        spec, calib, sessions = population
        start = time.perf_counter()
        serial = run_fleet(spec, sessions, seed=7, shards=1,
                           calibration=calib)
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        run = run_fleet_supervised(
            spec, sessions, seed=7, shards=4, calibration=calib,
            supervisor=_supervisor(lease_seconds=2.0, heartbeat_seconds=0.15,
                                   backoff_cap=0.25))
        ratio = (time.perf_counter() - start) / serial_seconds
        assert _json(run.result) == _json(serial)
        assert ratio < 25.0, (
            f"supervision overhead {ratio:.1f}x over the serial fold")

    def test_chaos_absorbed_bit_exactly(self, population):
        spec, calib, sessions = population
        serial = run_fleet(spec, sessions, seed=7, shards=1,
                           calibration=calib)
        run = run_fleet_supervised(
            spec, sessions, seed=7, shards=4, calibration=calib,
            faults=ShardFaultConfig(crash_rate=0.25, stall_rate=0.1,
                                    corrupt_rate=0.2, slow_rate=0.1,
                                    slow_seconds=0.3, max_faulty_attempts=2,
                                    seed=7),
            supervisor=_supervisor(lease_seconds=1.0, backoff_cap=0.25))
        assert _json(run.result) == _json(serial)
        assert run.report.faults_absorbed > 0, "the schedule injected nothing"

    def test_speculation_cuts_p99(self, population):
        spec, calib, sessions = population
        slow = ShardFaultConfig(slow_rate=0.4, slow_seconds=2.0,
                                max_faulty_attempts=1, seed=9)
        patient, eager = (run_fleet_supervised(
            spec, sessions, seed=7, shards=6, contention=False,
            calibration=calib, faults=slow,
            supervisor=_supervisor(lease_seconds=4.0, heartbeat_seconds=0.15,
                                   backoff_cap=0.25, speculate=speculate,
                                   speculation_min_seconds=0.4))
            for speculate in (False, True))
        assert _json(eager.result) == _json(patient.result)
        assert eager.report.speculations > 0
        p99_off = patient.report.p99_task_seconds("score")
        p99_on = eager.report.p99_task_seconds("score")
        assert p99_off > 0 and p99_on / p99_off < 0.7, (
            "stragglers are not being cut")


class TestStripeCheckpoints:
    def _save_partials(self, world, path, meta, n=2):
        # 600 sessions fit one chunk; later stripes are empty (legal).
        tasks = make_tasks(PHASE_SCORE, [(0,), (), ()])
        store = Checkpoint(path, meta, [task.key for task in tasks])
        sealed = {}
        for task in tasks[:n]:
            sealed[task.key] = seal(
                task.key, execute_stripe(world, task).to_jsonable())
            store.add(task.key, sealed[task.key])
        return tasks, sealed

    def test_roundtrip(self, world, tmp_path):
        path = str(tmp_path / "stripes.json")
        meta = {"fingerprint": "abc", "n_sessions": 600}
        tasks, sealed = self._save_partials(world, path, meta)
        loaded = Checkpoint(path, meta, [task.key for task in tasks])
        assert not loaded.quarantined
        assert loaded.entries == sealed

    def test_tampered_entry_quarantines_file(self, world, tmp_path):
        path = str(tmp_path / "stripes.json")
        meta = {"fingerprint": "abc"}
        tasks, _ = self._save_partials(world, path, meta)
        with open(path) as handle:
            data = json.load(handle)
        data["completed"][0]["payload"]["payload"]["cohorts"]["fleet"][
            "moments"]["total_energy"]["q_sum"] += 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        loaded = Checkpoint(path, meta, [task.key for task in tasks])
        assert loaded.entries == {}
        assert list(loaded.quarantined) == [path + ".corrupt"]
        assert "checksum" in loaded.quarantined[path + ".corrupt"]
        assert not os.path.exists(path)

    def test_stale_superset_stripes_ignored(self, spec, calib,
                                            tmp_path):
        """A checkpoint holding load stripes must not leak them into a
        contention-free resume (strict-superset stripe set)."""
        ckpt = str(tmp_path / "fleet.ckpt.json")
        run_fleet_supervised(spec, 400, seed=5, shards=2,
                             contention=True, calibration=calib,
                             checkpoint=ckpt,
                             supervisor=_supervisor())
        serial = run_fleet(spec, 400, seed=5, shards=1,
                           contention=False, calibration=calib)
        # Same meta except contention -> different run, quarantined.
        run = run_fleet_supervised(spec, 400, seed=5, shards=2,
                                   contention=False, calibration=calib,
                                   checkpoint=ckpt,
                                   supervisor=_supervisor())
        assert run.report.checkpoint_quarantined
        assert _json(run.result) == _json(serial)

    def test_superset_within_matching_meta_ignored(self, spec, calib,
                                                   tmp_path):
        """Stale stripe entries inside a meta-matching checkpoint are
        dropped, not merged."""
        ckpt = str(tmp_path / "fleet.ckpt.json")
        run_fleet_supervised(spec, 400, seed=5, shards=2,
                             contention=False, calibration=calib,
                             checkpoint=ckpt,
                             supervisor=_supervisor())
        with open(ckpt) as handle:
            data = json.load(handle)
        # Forge a stale stripe the run will never ask for.
        stale = json.loads(json.dumps(data["completed"][0]))
        stale["key"] = [PHASE_SCORE, 7]
        stale["checksum"] = checksum((PHASE_SCORE, 7), stale["payload"])
        data["completed"].append(stale)
        with open(ckpt, "w") as handle:
            json.dump(data, handle)
        serial = run_fleet(spec, 400, seed=5, shards=1,
                           contention=False, calibration=calib)
        run = run_fleet_supervised(spec, 400, seed=5, shards=2,
                                   contention=False, calibration=calib,
                                   checkpoint=ckpt,
                                   supervisor=_supervisor())
        assert run.report.stale_ignored == 1
        assert run.report.resumed == 2
        assert _json(run.result) == _json(serial)


class TestReportRoundTrip:
    def test_report_json_roundtrip(self):
        from repro.fleet import SupervisionReport
        report = SupervisionReport(
            workers=2, crashes=3, lease_revocations=1,
            corrupt_rejected=2, worker_errors=1, duplicates_dropped=4,
            speculations=1, retries=5, resumed=2, stale_ignored=1,
            events=[TaskEvent("crash", "load:1", 0, "exit 3"),
                    TaskEvent("result", "score:0", 1)],
            checkpoint_quarantined={"f.ckpt.corrupt": "not valid JSON"},
            task_seconds={"load:1": 1.5, "score:0": 0.25})
        data = json.loads(json.dumps(report.to_jsonable()))
        rebuilt = SupervisionReport.from_jsonable(data)
        assert rebuilt == report
        assert rebuilt.to_jsonable() == report.to_jsonable()
        assert rebuilt.faults_absorbed == report.faults_absorbed

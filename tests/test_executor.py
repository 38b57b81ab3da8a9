"""The supervised executor on a toy task list.

The fleet and matrix tests drive the executor through their callers;
these pin the protocol itself: under any seeded crash/stall/corrupt
schedule the accepted payloads are exactly the undisturbed run's, and
an exception raised by a task is its outcome, not a retry.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ShardError
from repro.executor import Supervisor, SupervisorConfig, usable_workers
from repro.faults import ShardFaultConfig, ShardFaultPlan


@dataclass(frozen=True)
class Square:
    """A pure toy task."""

    n: int

    @property
    def key(self):
        return ("toy", self.n)


def square(task):
    if task.n < 0:
        raise ConfigError(f"negative input {task.n}")
    return {"n": task.n, "square": task.n * task.n}


def fast_config(**overrides):
    """Protocol knobs short enough for a test, on a 1-CPU box too."""
    knobs = dict(workers=2, lease_seconds=0.5, heartbeat_seconds=0.05,
                 max_retries=4, backoff_base=0.01, backoff_cap=0.05,
                 speculation_min_seconds=0.3)
    knobs.update(overrides)
    return SupervisorConfig(**knobs)


def run_toy(tasks, config, plan=None):
    """(accepted payloads by key, outcomes, report) of one run."""
    accepted = {}

    def accept(task, payload):
        if task.key in accepted:
            return False
        accepted[task.key] = payload
        return True

    supervisor = Supervisor(tasks, square, accept, config, plan=plan)
    outcomes = supervisor.run()
    return accepted, outcomes, supervisor.report


class TestExecutor:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_faults_never_change_the_accepted_payloads(self, chaos_seed):
        tasks = [Square(n) for n in range(5)]
        clean, _, _ = run_toy(tasks, fast_config())
        assert clean == {task.key: square(task) for task in tasks}
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=0.3, stall_rate=0.15, corrupt_rate=0.25,
            max_faulty_attempts=2, seed=chaos_seed))
        faulted, outcomes, _ = run_toy(tasks, fast_config(), plan)
        assert faulted == clean
        assert all(outcome.error is None for outcome in outcomes.values())

    def test_raising_task_is_its_outcome_not_a_retry(self):
        tasks = [Square(2), Square(-1), Square(3)]
        accepted, outcomes, report = run_toy(tasks, fast_config())
        failed = outcomes[("toy", -1)]
        assert isinstance(failed.error, ConfigError)
        assert failed.failures == 0
        assert report.retries == 0
        assert set(accepted) == {("toy", 2), ("toy", 3)}

    def test_workers_must_be_positive(self):
        with pytest.raises(ShardError, match="workers"):
            SupervisorConfig(workers=0)


class TestWorkers:
    def test_usable_workers_capped_by_tasks(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert [usable_workers(n) for n in (0, 1, 2, 3, 9)] == [
            1, 1, 2, 3, 3]

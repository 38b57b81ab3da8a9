"""The supervised executor on a toy task list.

The fleet and matrix tests drive the executor through their callers;
these pin the protocol itself: under any seeded crash/stall/corrupt
schedule the accepted payloads are exactly the undisturbed run's, and
an exception raised by a task is its outcome, not a retry.
"""

import multiprocessing
import weakref
from dataclasses import dataclass, replace
from typing import Optional

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


@dataclass(frozen=True)
class Tagged:
    """A toy task whose ``tag`` only ``prepare`` fills in."""

    n: int
    tag: Optional[str] = None

    @property
    def key(self):
        return ("tagged", self.n)


def echo_tag(task):
    return {"n": task.n, "tag": task.tag}


class TestPrepare:
    def run_prepared(self, tasks, plan=None):
        """(accepted payloads, outcomes, supervisor, prepare calls,
        weakrefs to every prepared task)."""
        accepted, calls, prepared = {}, [], []

        def prepare(task):
            calls.append(task.key)
            where = multiprocessing.current_process().name
            ready = replace(task, tag=f"prepared in {where}")
            prepared.append(weakref.ref(ready))
            return ready

        def accept(task, payload):
            accepted[task.key] = payload
            return True

        supervisor = Supervisor(tasks, echo_tag, accept, fast_config(),
                                plan=plan, prepare=prepare)
        outcomes = supervisor.run()
        return accepted, outcomes, supervisor, calls, prepared

    def test_result_reaches_execute(self):
        tasks = [Tagged(n) for n in range(3)]
        accepted, _, _, calls, _ = self.run_prepared(tasks)
        parent = multiprocessing.current_process().name
        assert accepted == {("tagged", n): {"n": n,
                                            "tag": f"prepared in {parent}"}
                            for n in range(3)}
        assert sorted(calls) == [task.key for task in tasks]

    def test_runs_in_the_parent_once_per_attempt(self):
        """Every first attempt crashes: each task is prepared twice, and
        the parent's own call list sees both calls."""
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=1.0, max_faulty_attempts=1, seed=0))
        tasks = [Tagged(n) for n in range(3)]
        accepted, outcomes, supervisor, calls, _ = self.run_prepared(
            tasks, plan)
        assert supervisor.report.crashes == 3
        assert sorted(calls) == sorted([task.key for task in tasks] * 2)
        assert all(outcome.error is None and outcome.failures == 1
                   for outcome in outcomes.values())
        assert len(accepted) == 3

    def test_parent_drops_prepared_tasks(self):
        plan = ShardFaultPlan.from_config(ShardFaultConfig(
            crash_rate=0.5, max_faulty_attempts=1, seed=4))
        _, _, supervisor, _, prepared = self.run_prepared(
            [Tagged(n) for n in range(4)], plan)
        # The supervisor itself is still alive; it holds none of them.
        assert supervisor.states and len(prepared) > 4
        assert all(ref() is None for ref in prepared)
        assert multiprocessing.active_children() == []


class TestWorkers:
    def test_usable_workers_capped_by_tasks(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert [usable_workers(n) for n in (0, 1, 2, 3, 9)] == [
            1, 1, 2, 3, 3]

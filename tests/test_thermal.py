"""Tests for the thermal-pressure model and the degradation ladder."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import RACE_TO_SLEEP, SimulationConfig, ThermalConfig
from repro.core.pipeline import simulate
from repro.core.race_to_sleep import (
    AdaptivePlan,
    AdaptiveRtSGovernor,
    LADDER_STEPS,
)
from repro.core.results import RunResult
from repro.core.session import Play, simulate_session
from repro.errors import ThermalError
from repro.thermal import ThermalModel, ThermalPlan
from repro.video import workload

_CFG = SimulationConfig()


#: Cap-drop duties of the severity sweep (0 = wake-delay injection only).
_DUTIES = (0.0, 0.25, 0.55, 0.85, 1.0)


@pytest.fixture(scope="module")
def duty_sweep():
    """(adaptive, fixed) runs of V5 under Race-to-Sleep per duty."""
    return {duty: tuple(
        simulate(workload("V5"), RACE_TO_SLEEP, n_frames=96, seed=7,
                 config=_pressed_config(duty, adaptive))
        for adaptive in (True, False)) for duty in _DUTIES}


def _injecting(**kwargs) -> ThermalConfig:
    return ThermalConfig(enabled=True, **kwargs)


def _pressed_config(duty: float, adaptive: bool,
                    seed: int = 7) -> SimulationConfig:
    return replace(
        _CFG,
        network=replace(_CFG.network, preroll_frames=30),
        thermal=ThermalConfig(
            enabled=True, adaptive=adaptive, seed=seed,
            event_interval=1.0, cap_drop_rate=1.0, cap_drop_duty=duty,
            delayed_transition_rate=0.5))


class TestThermalPlan:
    def test_no_injection_means_no_plan(self):
        assert ThermalPlan.from_config(_injecting()) is None
        assert ThermalPlan.from_config(
            _injecting(cap_drop_rate=0.5)) is not None
        assert ThermalPlan.from_config(
            _injecting(stuck_dvfs_rate=0.1)) is not None
        assert ThermalPlan.from_config(
            _injecting(delayed_transition_rate=0.1)) is not None

    def test_queries_are_order_free(self):
        plan = ThermalPlan(_injecting(cap_drop_rate=0.6, cap_drop_duty=0.4,
                                      delayed_transition_rate=0.3,
                                      seed=11))
        times = np.linspace(0.0, 30.0, 400)
        forward = [(plan.boost_revoked(t), plan.wake_delay(t))
                   for t in times]
        backward = [(plan.boost_revoked(t), plan.wake_delay(t))
                    for t in reversed(times)]
        assert forward == backward[::-1]

    def test_windows_nest_in_duty_and_rate(self):
        # A stricter config's revoked set must contain a milder one's
        # (same seed): the window is [slot*I, slot*I + duty*I) and the
        # accept threshold is the rate, so both knobs nest.
        mild = ThermalPlan(_injecting(cap_drop_rate=0.3, cap_drop_duty=0.2,
                                      seed=5))
        stricter_duty = ThermalPlan(
            _injecting(cap_drop_rate=0.3, cap_drop_duty=0.8, seed=5))
        stricter_rate = ThermalPlan(
            _injecting(cap_drop_rate=0.9, cap_drop_duty=0.2, seed=5))
        for t in np.linspace(0.0, 60.0, 1500):
            if mild.boost_revoked(t):
                assert stricter_duty.boost_revoked(t)
                assert stricter_rate.boost_revoked(t)

    def test_revoked_overlap_matches_pointwise_integration(self):
        plan = ThermalPlan(_injecting(cap_drop_rate=0.7, cap_drop_duty=0.45,
                                      stuck_dvfs_rate=0.2, seed=3))
        start, end, n = 0.3, 17.7, 200_000
        grid = np.linspace(start, end, n, endpoint=False)
        dt = (end - start) / n
        riemann = sum(plan.boost_revoked(t) for t in grid) * dt
        assert plan.revoked_overlap(start, end) == pytest.approx(
            riemann, abs=5 * dt)

    def test_boost_revoked_constant_between_boundaries(self):
        plan = ThermalPlan(_injecting(cap_drop_rate=0.6, cap_drop_duty=0.5,
                                      seed=9))
        t = 0.0
        for _ in range(40):
            boundary = plan.next_boundary(t)
            assert boundary > t
            samples = np.linspace(t, boundary, 25, endpoint=False)[1:]
            states = {plan.boost_revoked(s) for s in samples}
            assert len(states) == 1
            t = boundary

    def test_wake_delay_is_all_or_nothing(self):
        cfg = _injecting(delayed_transition_rate=0.5)
        plan = ThermalPlan(cfg)
        delays = {plan.wake_delay(t) for t in np.linspace(0, 50, 500)}
        assert delays == {0.0, cfg.transition_delay}


class TestThermalModel:
    def test_requires_enabled_config(self):
        with pytest.raises(ThermalError, match="enabled"):
            ThermalModel(ThermalConfig())

    def test_rc_matches_closed_form(self):
        cfg = _injecting()
        model = ThermalModel(cfg)
        power, horizon = 0.8, 5.0
        for t in np.linspace(0.1, horizon, 37):
            model.advance_to(t, power)
        tau = cfg.thermal_resistance * cfg.thermal_capacitance
        target = cfg.ambient_c + power * cfg.thermal_resistance
        expected = target + (cfg.ambient_c - target) * np.exp(
            -horizon / tau)
        assert model.temp_c == pytest.approx(expected, rel=1e-9)

    def test_hysteresis_revokes_then_releases(self):
        # Tight thresholds and a hot power level so the junction
        # crosses quickly; cooling at idle must restore boost only
        # after the release temperature.
        cfg = _injecting(thermal_resistance=50.0, thermal_capacitance=0.2,
                         throttle_temp_c=50.0, release_temp_c=40.0)
        model = ThermalModel(cfg)
        t = 0.0
        while model.boost_available(t) and t < 60.0:
            t += 0.05
            model.advance_to(t, 1.0)  # 1 W -> target 80 C
        assert not model.boost_available(t)
        assert model.temp_c >= cfg.throttle_temp_c
        release = t
        while not model.boost_available(release) and release < t + 60.0:
            release += 0.05
            model.advance_to(release, 0.0)  # idle -> target 30 C
        assert model.boost_available(release)
        assert model.temp_c <= cfg.release_temp_c

    def test_sustained_power_cap_hysteresis(self):
        cfg = _injecting(sustained_power_cap=0.5, cap_window=0.5)
        model = ThermalModel(cfg)
        model.advance_to(5.0, 1.0)  # EMA -> 1 W, far above the cap
        assert not model.boost_available(5.0)
        model.advance_to(5.1, 0.0)  # brief dip: still above release
        assert not model.boost_available(5.1)
        model.advance_to(15.0, 0.0)  # EMA decays toward zero
        assert model.boost_available(15.0)

    def test_throttle_seconds_integrates_injected_windows(self):
        cfg = _injecting(cap_drop_rate=0.8, cap_drop_duty=0.4, seed=2)
        model = ThermalModel(cfg)
        horizon = 13.0
        for t in np.linspace(0.31, horizon, 57):
            model.advance_to(t, 0.1)
        assert model.throttle_seconds == pytest.approx(
            ThermalPlan(cfg).revoked_overlap(0.0, horizon), rel=1e-9)

    def test_backwards_time_raises(self):
        model = ThermalModel(_injecting())
        model.advance_to(1.0, 0.5)
        with pytest.raises(ThermalError, match="backwards"):
            model.advance_to(0.5, 0.5)

    def test_snapshot_reflects_state(self):
        model = ThermalModel(_injecting())
        model.advance_to(2.0, 0.6)
        snap = model.snapshot()
        assert snap.time == 2.0
        assert snap.temp_c == model.temp_c
        assert snap.ema_power == model.ema_power
        assert snap.throttle_seconds == model.throttle_seconds


class _InstantSource:
    """FrameSource stub: everything buffered at t=0."""

    def frames_available(self, time: float) -> int:
        return 10 ** 9

    def time_when_available(self, count: int) -> float:
        return 0.0


def _governor(thermal_cfg: ThermalConfig) -> AdaptiveRtSGovernor:
    return AdaptiveRtSGovernor(
        RACE_TO_SLEEP, _CFG.decoder, _InstantSource(),
        _CFG.video.frame_interval, 1, ThermalModel(thermal_cfg))


class TestDegradationLadder:
    def test_boost_granted_reproduces_fixed_plan(self):
        gov = _governor(_injecting())
        plan = gov.plan_wake_adaptive(0.0, 0, lambda batch: 0.0)
        assert isinstance(plan, AdaptivePlan)
        assert plan.step == 0 and plan.racing and plan.allow_s3
        assert plan.batch_cap == RACE_TO_SLEEP.batch_size
        assert gov.degradation_steps == 0

    def test_revoked_boost_replans_at_nominal(self):
        gov = _governor(_injecting(stuck_dvfs_rate=1.0,
                                   event_interval=1000.0))
        plan = gov.plan_wake_adaptive(0.0, 16, lambda batch: 0.0)
        assert plan.step == 1 and not plan.racing and plan.allow_s3
        assert plan.reason == LADDER_STEPS[1]
        assert gov.degradation_steps == 1
        # The nominal-frequency safe start must be earlier than the
        # boosted one the fixed governor would have used.
        assert (gov.latest_safe_start(16, racing=False)
                < gov.latest_safe_start(16, racing=True))

    def test_unformable_batch_shrinks_toward_one(self):
        gov = _governor(_injecting(stuck_dvfs_rate=1.0,
                                   event_interval=1000.0))
        never_free = lambda batch: 0.0 if batch == 1 else 10.0  # noqa: E731
        plan = gov.plan_wake_adaptive(0.0, 16, never_free)
        assert plan.step == 2
        assert plan.batch_cap == 1
        assert gov.batch_cap == 1

    def test_ladder_walks_every_step_as_time_runs_out(self):
        # Frame 3's deadline is meetable at nominal from t=0 but not
        # from arbitrarily late starts, so sweeping `now` crosses the
        # whole ladder; frame 0 would concede immediately (its nominal
        # decode estimate exceeds one display lead).
        gov = _governor(_injecting(stuck_dvfs_rate=1.0,
                                   event_interval=1000.0))
        deadline = gov.deadline(3)
        seen = {}
        for now in np.arange(0.0, deadline + 0.005, 0.0001):
            probe = _governor(_injecting(stuck_dvfs_rate=1.0,
                                         event_interval=1000.0))
            plan = probe.plan_wake_adaptive(float(now), 3,
                                            lambda batch: 0.0)
            seen.setdefault(plan.step, plan)
        assert {1, 3, 4} <= set(seen)
        assert not seen[3].allow_s3 and not seen[4].allow_s3
        concede = seen[4]
        assert concede.reason == LADDER_STEPS[4]

    def test_batch_depth_recovers_when_boost_returns(self):
        gov = _governor(_injecting(stuck_dvfs_rate=1.0,
                                   event_interval=1000.0))
        never_free = lambda batch: 0.0 if batch == 1 else 10.0  # noqa: E731
        gov.plan_wake_adaptive(0.0, 16, never_free)
        assert gov.batch_cap == 1
        gov.thermal.plan = None  # pressure lifts
        gov.plan_wake_adaptive(0.0, 16, lambda batch: 0.0)
        assert gov.batch_cap == 2  # AIMD: +1 per calm plan
        assert gov.max_step == 2


class TestPipelineUnderPressure:
    def test_quiet_thermal_is_bit_identical_to_disabled(self):
        quiet = replace(_CFG, thermal=ThermalConfig(enabled=True))
        on = simulate(workload("V8"), RACE_TO_SLEEP, n_frames=48,
                      seed=3, config=quiet)
        off = simulate(workload("V8"), RACE_TO_SLEEP, n_frames=48,
                       seed=3, config=_CFG)
        assert json.dumps(on.to_jsonable()) == json.dumps(
            off.to_jsonable())

    def test_adaptive_drops_below_fixed_under_throttle(self, duty_sweep):
        for duty, (adaptive, fixed) in duty_sweep.items():
            assert adaptive.drops == 0, (
                f"the ladder must keep the zero-drop promise at duty {duty}")
            assert (abs(adaptive.energy.total - fixed.energy.total)
                    / fixed.energy.total < 0.05), (
                "graceful degradation must not cost >5% energy")
            if duty >= 0.55:
                # Boost revoked for most of the session: the fixed
                # governor drops, the ladder walks instead.
                assert adaptive.throttle_seconds / adaptive.elapsed >= 0.5
                assert fixed.drops > 0
                assert adaptive.degradation_steps > 0
                assert adaptive.frames_at_nominal > 0

    def test_severity_prices_monotonically(self, duty_sweep):
        """Throttle time, ladder depth and energy grow with the duty."""
        adaptive = [runs[0] for runs in duty_sweep.values()]
        for field in ("throttle_seconds", "degradation_steps"):
            values = [getattr(run, field) for run in adaptive]
            assert values == sorted(values), field
        energies = [run.energy.total for run in adaptive]
        assert energies == sorted(energies)
        assert adaptive[0].throttle_seconds == 0
        assert adaptive[-1].throttle_seconds > 0
        assert adaptive[0].frames_at_nominal == 0, (
            "duty 0 must decode no frame at nominal")
        assert adaptive[-1].frames_at_nominal > 0

    def test_fixed_governor_reports_pressure_without_adapting(self,
                                                              duty_sweep):
        fixed = duty_sweep[0.55][1]
        assert fixed.throttle_seconds > 0
        assert fixed.frames_at_nominal > 0
        assert fixed.degradation_steps == 0  # no ladder to walk

    def test_new_fields_round_trip_bit_identically(self, duty_sweep):
        run = duty_sweep[0.55][0]
        assert run.throttle_seconds > 0
        restored = RunResult.from_jsonable(
            json.loads(json.dumps(run.to_jsonable())))
        assert restored.throttle_seconds == run.throttle_seconds
        assert restored.degradation_steps == run.degradation_steps
        assert restored.frames_at_nominal == run.frames_at_nominal
        assert restored.energy.total == run.energy.total

    def test_legacy_checkpoint_defaults_new_fields_to_zero(self):
        run = simulate(workload("V8"), RACE_TO_SLEEP, n_frames=16,
                       seed=2)
        payload = run.to_jsonable()
        for name in ("throttle_seconds", "degradation_steps",
                     "frames_at_nominal"):
            del payload[name]
        restored = RunResult.from_jsonable(payload)
        assert restored.throttle_seconds == 0.0
        assert restored.degradation_steps == 0
        assert restored.frames_at_nominal == 0

    def test_session_aggregates_thermal_counters(self):
        pressed = _pressed_config(0.55, True)
        session = simulate_session(
            [Play(workload("V5"), n_frames=48),
             Play(workload("V5"), n_frames=48)],
            RACE_TO_SLEEP, config=pressed, seed=7)
        assert session.throttle_seconds == pytest.approx(sum(
            run.throttle_seconds for run in session.segments))
        assert session.degradation_steps == sum(
            run.degradation_steps for run in session.segments)
        assert session.frames_at_nominal == sum(
            run.frames_at_nominal for run in session.segments)
        assert session.throttle_seconds > 0

"""Tests for repro.realtime: link, congestion, recovery, chaos.

The load-bearing properties:

* emergent loss/delay are a pure function of (seed, link params,
  traffic) — no FaultPlan required, no iteration-order dependence;
* injected packet erasures compose with emergent queue loss without
  reshuffling it (open loop: the erased packet still queues);
* ``RealtimeConfig(enabled=False)`` leaves paper-mode results
  bit-identical;
* chaos campaigns are bit-identical at any shard count.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    BASELINE,
    GAB,
    FaultConfig,
    RealtimeConfig,
    SimulationConfig,
    ThermalConfig,
)
from repro.core.pipeline import simulate
from repro.core.results import RunResult
from repro.core.race_to_sleep import REALTIME_LADDER_STEPS, DeadlineLadder
from repro.errors import ConfigError, RealtimeError, ReproError
from repro.faults import FaultPlan
from repro.realtime import (
    CHAOS_REGIMES,
    BottleneckLink,
    ChaosResult,
    DelayLossController,
    RegimeSLO,
    apply_fec,
    parity_count,
    realtime_playback,
    run_chaos,
    simulate_realtime,
)
from repro.realtime.session import RealtimeFrameSource, RealtimeResult
from repro.units import MBPS
from repro.video import workload


def _rt(**kwargs) -> RealtimeConfig:
    base = dict(enabled=True, seed=5)
    base.update(kwargs)
    return RealtimeConfig(**base)


def _sim(rt: RealtimeConfig, **kwargs) -> SimulationConfig:
    return replace(SimulationConfig(), realtime=rt, **kwargs)


class TestRealtimeConfig:
    def test_default_inert(self):
        assert not RealtimeConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        dict(latency_budget=0.0),
        dict(mtu_bytes=8),
        dict(queue_bytes=100, mtu_bytes=1200),
        dict(red_min_fill=0.9, red_max_fill=0.5),
        dict(rate_schedule=((2.0, 1.0), (1.0, 0.5))),
        dict(rate_schedule=((1.0, -0.5),)),
        dict(min_rate=5 * MBPS, start_rate=1 * MBPS),
        dict(delay_target=0.0),
        dict(recovery="arq"),
        dict(fec_group=0),
        dict(downscale_factor=1.5),
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            RealtimeConfig(**kwargs)


class TestBottleneckLink:
    def test_needs_enabled(self):
        with pytest.raises(RealtimeError):
            BottleneckLink(RealtimeConfig())

    def test_unloaded_packet_sees_propagation_only(self):
        link = BottleneckLink(_rt(link_rate=10 * MBPS,
                                  propagation_delay=0.015))
        arrival, delay = link.send_packet(1.0, 0, 0, 0, 1200, False)
        # The packet's own service time counts as queueing delay.
        assert delay == pytest.approx(1200 / (10 * MBPS))
        assert arrival == pytest.approx(1.0 + delay + 0.015)

    def test_drain_integrates_rate_schedule(self):
        link = BottleneckLink(_rt(link_rate=1 * MBPS,
                                  rate_schedule=((1.0, 0.5),)))
        link.backlog = 1 * MBPS  # one second of full-rate service
        link.drain(1.0)
        assert link.backlog == pytest.approx(0.0)
        link.backlog = 1 * MBPS
        link.clock = 1.0
        link.drain(2.0)  # half rate now
        assert link.backlog == pytest.approx(0.5 * MBPS)

    def test_droptail_overflow(self):
        link = BottleneckLink(_rt(queue_bytes=2400, mtu_bytes=1200))
        outcome = link.send_burst(0.0, 0, [1200] * 3, 0, [False] * 3)
        assert link.overflow_drops == 1
        assert math.isinf(outcome.arrival[2])
        assert outcome.enqueued_bytes == 2400

    def test_dead_link_predicts_inf(self):
        link = BottleneckLink(_rt(rate_schedule=((0.0, 0.0),)))
        assert math.isinf(link.predict_arrival(0.0, 1200))
        assert math.isinf(link.queue_delay(0.0))

    def test_emergent_drops_deterministic(self):
        def drops(seed):
            link = BottleneckLink(_rt(seed=seed, link_rate=1 * MBPS,
                                      queue_bytes=12_000))
            pattern = []
            for f in range(40):
                out = link.send_burst(f * 0.01, f, [1200] * 8, 0,
                                      [False] * 8)
                pattern.append(tuple(out.arrival))
            return link.red_drops, link.overflow_drops, pattern

        assert drops(5) == drops(5)
        # A different seed reshuffles RED draws but not the physics:
        # the droptail count, which is backlog-driven, only moves if
        # RED drops change the backlog.
        assert drops(5) != drops(6)

    def test_injection_is_open_loop(self):
        """Injected erasures occupy the queue: for a fixed send
        pattern they cannot change which packets the queue drops."""
        def run(inject):
            link = BottleneckLink(_rt(link_rate=1 * MBPS,
                                      queue_bytes=12_000))
            plan = FaultPlan(FaultConfig(packet_loss=0.3, seed=11))
            for f in range(40):
                flags = [inject and plan.packet_lost(f, j, 0)
                         for j in range(8)]
                link.send_burst(f * 0.01, f, [1200] * 8, 0, flags)
            return link

        clean, injected = run(False), run(True)
        assert injected.red_drops == clean.red_drops
        assert injected.overflow_drops == clean.overflow_drops
        assert injected.injected_drops > 0
        assert clean.injected_drops == 0


class TestDelayLossController:
    def test_probes_up_when_clear(self):
        cc = DelayLossController(_rt())
        rate = cc.rate
        assert cc.observe(0.0, 0.0) == pytest.approx(rate * 1.04)

    def test_gradient_backoff(self):
        cfg = _rt()
        cc = DelayLossController(cfg)
        cc.observe(0.001, 0.0)
        rate = cc.rate
        cc.observe(0.001 + 2 * cfg.gradient_threshold, 0.0)
        assert cc.rate == pytest.approx(rate * cfg.decrease_factor)
        assert cc.overuse_events == 1

    def test_standing_queue_backoff(self):
        """A flat but large queue delay must still trip overuse — the
        controller targets an absolute delay, not just its slope."""
        cfg = _rt()
        cc = DelayLossController(cfg)
        cc.observe(2 * cfg.delay_target, 0.0)
        rate = cc.rate
        cc.observe(2 * cfg.delay_target, 0.0)  # gradient is now zero
        assert cc.rate == pytest.approx(rate * cfg.decrease_factor)

    def test_loss_backoff_proportional_and_floored(self):
        cc = DelayLossController(_rt())
        rate = cc.rate
        cc.observe(0.0, 0.2)
        assert cc.rate == pytest.approx(rate * 0.9)
        assert cc.loss_events == 1
        cc.observe(0.0, 1.0)  # 100% loss halves, never zeroes
        assert cc.rate == pytest.approx(rate * 0.9 * 0.5)

    def test_dead_link_is_maximal_overuse(self):
        cc = DelayLossController(_rt())
        rate = cc.rate
        cc.observe(math.inf, 0.0)
        assert cc.rate < rate

    def test_clamped_to_band(self):
        cfg = _rt()
        cc = DelayLossController(cfg)
        for _ in range(500):
            cc.observe(0.0, 0.0)
        assert cc.rate == cfg.max_rate
        for _ in range(500):
            cc.observe(math.inf, 1.0)
        assert cc.rate == cfg.min_rate


class TestFec:
    def test_parity_count(self):
        assert parity_count(0, 8) == 0
        assert parity_count(1, 8) == 1
        assert parity_count(8, 8) == 1
        assert parity_count(9, 8) == 2

    def test_single_loss_recovers_at_last_dependency(self):
        arrivals = [1.0, math.inf, 3.0, 2.0]
        out = apply_fec(arrivals, [5.0], group=4)
        assert out == [1.0, 5.0, 3.0, 2.0]

    def test_double_loss_unrecoverable(self):
        out = apply_fec([1.0, math.inf, math.inf], [5.0], group=3)
        assert math.isinf(out[1]) and math.isinf(out[2])

    def test_lost_parity_recovers_nothing(self):
        out = apply_fec([1.0, math.inf], [math.inf], group=2)
        assert math.isinf(out[1])

    def test_groups_independent(self):
        arrivals = [math.inf, 1.0, math.inf, math.inf]
        out = apply_fec(arrivals, [2.0, 3.0], group=2)
        assert out[0] == 2.0  # group 0 had one loss: recovered
        assert math.isinf(out[2]) and math.isinf(out[3])


class TestDeadlineLadder:
    def test_steps_exported(self):
        assert REALTIME_LADDER_STEPS == ("nominal", "downscale",
                                         "freeze", "skip")

    def test_least_degraded_first(self):
        ladder = DeadlineLadder(0.5, 0.1)
        # predict: fits only once scaled below 0.6x
        step, factor = ladder.choose(1.0, lambda f: 0.5 + f)
        assert (step, factor) == (1, 0.5)
        assert ladder.downscaled == 1 and ladder.degradation_steps == 1

    def test_skip_when_nothing_fits(self):
        ladder = DeadlineLadder(0.5, 0.1)
        step, factor = ladder.choose(1.0, lambda f: 10.0)
        assert (step, factor) == (3, 0.0)
        assert ladder.skipped == 1

    def test_nominal_costs_nothing(self):
        ladder = DeadlineLadder(0.5, 0.1)
        step, factor = ladder.choose(1.0, lambda f: 0.1)
        assert (step, factor) == (0, 1.0)
        assert ladder.degradation_steps == 0


#: A deliberately harsh link: deep periodic cliffs against a modest
#: budget, so emergent drops and ladder action both show up in a short
#: session.
_HARSH = dict(link_rate=3 * MBPS, queue_bytes=48_000,
              rate_schedule=((1.0, 0.12), (2.0, 1.0), (3.0, 0.12),
                             (4.0, 1.0)))


class TestSimulateRealtime:
    def test_requires_enabled(self):
        with pytest.raises(RealtimeError):
            simulate_realtime(SimulationConfig())

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_no_frames_is_a_config_error(self, n_frames):
        with pytest.raises(ConfigError, match="at least one frame"):
            simulate_realtime(_sim(_rt()), n_frames=n_frames)

    def test_deterministic(self):
        cfg = _sim(_rt(**_HARSH))
        a = simulate_realtime(cfg, n_frames=240)
        b = simulate_realtime(cfg, n_frames=240)
        assert a.to_jsonable() == b.to_jsonable()

    def test_emergent_loss_without_fault_plan(self):
        # Ladder off: the sender keeps pushing full frames into the
        # cliff, so the queue itself must produce the losses.
        result = simulate_realtime(_sim(_rt(ladder=False, **_HARSH)),
                                   n_frames=240)
        assert result.overflow_drops + result.red_drops > 0
        assert result.injected_drops == 0
        assert result.total_energy > 0

    def test_ladder_prevents_emergent_drops(self):
        """The ladder pre-shrinks frames that would not fit, so the
        same harsh link stops dropping when it is on."""
        off = simulate_realtime(_sim(_rt(ladder=False, **_HARSH)),
                                n_frames=240)
        on = simulate_realtime(_sim(_rt(**_HARSH)), n_frames=240)
        assert (on.overflow_drops + on.red_drops
                < off.overflow_drops + off.red_drops)

    def test_injected_loss_composes(self):
        cfg = _sim(_rt(**_HARSH),
                   faults=FaultConfig(packet_loss=0.05, seed=3))
        result = simulate_realtime(cfg, n_frames=240)
        assert result.injected_drops > 0

    def test_ladder_engages_under_pressure(self):
        result = simulate_realtime(_sim(_rt(**_HARSH)), n_frames=240)
        assert result.degradation_steps > 0
        assert (result.downscaled_frames == int((result.step == 1).sum())
                and result.frozen_frames == int((result.step == 2).sum())
                and result.skipped_frames == int((result.step == 3).sum()))

    def test_json_round_trip(self):
        result = simulate_realtime(_sim(_rt(**_HARSH)), n_frames=120)
        back = RealtimeResult.from_jsonable(result.to_jsonable())
        assert back.to_jsonable() == result.to_jsonable()
        assert np.array_equal(back.completion, result.completion,
                              equal_nan=True)

    def test_recovery_modes_differ(self):
        runs = {}
        for mode in ("fec", "retx"):
            cfg = _sim(_rt(recovery=mode, propagation_delay=0.060,
                           loss_threshold=1.0),
                       faults=FaultConfig(packet_loss=0.15, seed=3))
            runs[mode] = simulate_realtime(cfg, n_frames=180)
        assert runs["fec"].parity_bytes > 0 and runs["fec"].retx_bytes == 0
        assert runs["retx"].retx_bytes > 0 and runs["retx"].parity_bytes == 0
        # A retransmission over a 120 ms RTT cannot make a 150 ms budget.
        assert (runs["fec"].deadline_miss_fraction
                < runs["retx"].deadline_miss_fraction)

    def test_fec_beats_retx_at_high_rtt(self):
        """70 ms one way against a 150 ms budget: a retransmission lands
        a full RTT late, while XOR parity rides with the first pass.
        With loss backoff off (``loss_threshold=1``) the 20 % injected
        loss prices both modes alike, so FEC must miss under half as
        many deadlines at a byte overhead within 1.5x of retx's."""
        runs = {}
        for mode in ("fec", "retx"):
            rt = RealtimeConfig(
                enabled=True, propagation_delay=0.070, latency_budget=0.150,
                link_rate=6 * MBPS, start_rate=3 * MBPS, min_rate=1 * MBPS,
                max_rate=4 * MBPS, ladder=False, fec_group=6, max_retx=2,
                loss_threshold=1.0, recovery=mode, seed=7)
            runs[mode] = simulate_realtime(
                _sim(rt, faults=FaultConfig(packet_loss=0.20, seed=7)),
                n_frames=240, profile=workload("V8"))
        fec, retx = runs["fec"], runs["retx"]
        assert retx.deadline_miss_fraction > 0
        assert (fec.deadline_miss_fraction
                < 0.5 * retx.deadline_miss_fraction)
        overhead = fec.byte_overhead / retx.byte_overhead
        assert 1 / 1.5 < overhead < 1.5

    def test_ladder_cuts_p99_lateness_under_cliffs(self):
        """Under bandwidth cliffs the deadline ladder strictly cuts p99
        frame lateness against the same session without it, at no more
        than 5 % extra energy."""
        cliff = ((3.0, 0.22), (6.0, 1.0), (9.0, 0.22), (12.0, 1.0))
        on, off = (simulate_realtime(
            _sim(RealtimeConfig(enabled=True, link_rate=6 * MBPS,
                                ladder=ladder, rate_schedule=cliff, seed=7)),
            n_frames=480, profile=workload("V8"))
            for ladder in (True, False))
        assert off.p99_lateness() > 0
        assert on.p99_lateness() < off.p99_lateness()
        assert on.degradation_steps > 0
        assert on.total_energy <= 1.05 * off.total_energy

    def test_overlay_feeds_concealment(self):
        result = simulate_realtime(_sim(_rt(**_HARSH)), n_frames=240)
        overlay = result.block_overlay()
        assert overlay  # the harsh link must have lost something
        run = realtime_playback(GAB, _sim(_rt(**_HARSH)), n_frames=240)
        assert run.concealed_blocks >= sum(len(v) for v in overlay.values())

    def test_availability_monotone(self):
        result = simulate_realtime(_sim(_rt(**_HARSH)), n_frames=240)
        times = result.availability_times()
        assert (np.diff(times) >= 0).all()
        assert np.isfinite(times).all()


class TestEdgeSweep:
    """``simulate_realtime``, and the playback it feeds, at the edges of
    their inputs give a valid result or a typed error.  The playback
    conceals every unrecovered block with re-reads logged as deferred
    draws, so it must also equal the eager-draw oracle's, and the same
    playback with every frame's pixels rendered."""

    @given(dead_link=st.booleans(), n_frames=st.sampled_from([1, 2, 30]),
           revoked=st.booleans(),
           recovery=st.sampled_from(["fec", "retx", "adaptive"]),
           ladder=st.booleans(), scheme=st.sampled_from([BASELINE, GAB]))
    @settings(max_examples=30, deadline=None)
    def test_valid_result_or_typed_error(self, eager_traffic_times,
                                         pixel_frames, dead_link, n_frames,
                                         revoked, recovery, ladder, scheme):
        # A dead link is a zero-bandwidth trace: the rate is scaled by
        # 0 from the start.
        rt = _rt(recovery=recovery, ladder=ladder,
                 rate_schedule=((0.0, 0.0),) if dead_link else ())
        config = _sim(rt)
        if revoked:
            # Boost revoked for the whole of every event slot.
            config = replace(config, thermal=ThermalConfig(
                enabled=True, seed=7, event_interval=1.0,
                cap_drop_rate=1.0, cap_drop_duty=1.0))
        try:
            realtime = simulate_realtime(config, n_frames=n_frames)
        except ReproError:
            return
        assert realtime.n_frames == n_frames
        assert len(realtime.completion) == len(realtime.step) == n_frames
        assert 0.0 <= realtime.deadline_miss_fraction <= 1.0
        assert np.isfinite(realtime.total_energy)
        assert realtime.total_energy >= 0
        assert RealtimeResult.from_jsonable(
            realtime.to_jsonable()).to_jsonable() == realtime.to_jsonable()
        if dead_link:
            assert realtime.block_overlay()

        def play():
            try:
                return realtime_playback(scheme, config, n_frames=n_frames)
            except ReproError as error:
                return error

        deferred = play()
        with eager_traffic_times():
            eager = play()
        with pixel_frames():
            pixels = play()
        if isinstance(deferred, ReproError):
            for oracle in (eager, pixels):
                assert type(oracle) is type(deferred)
                assert str(oracle) == str(deferred)
            return
        assert isinstance(deferred, RunResult)
        assert deferred.n_frames == n_frames
        assert 0 <= deferred.drops <= n_frames
        assert np.isfinite(deferred.energy.total)
        assert deferred.energy.total > 0
        if dead_link:
            assert deferred.concealed_blocks > 0
        assert deferred.to_jsonable() == eager.to_jsonable()
        assert deferred.to_jsonable() == pixels.to_jsonable()


class TestPlaybackClock:
    """``realtime_playback`` holds frame ``i``'s delivery deadline,
    ``i / fps + latency_budget``, as its VD call, a refresh before its
    vsync."""

    def test_healthy_link_drops_only_what_decoding_drops(self):
        n_frames = 240
        config = _sim(_rt())
        realtime = simulate_realtime(config, n_frames=n_frames)
        assert not realtime.miss.any()  # a healthy link: no frame late
        # Every frame then reaches the decoder by its VD call, so no
        # arrival holds a decode back: a frame can miss its vsync only
        # as it would with every frame buffered from the start.
        buffered = RealtimeFrameSource(np.zeros(n_frames))
        for scheme in (BASELINE, GAB):
            run = realtime_playback(scheme, config, n_frames=n_frames)
            bound = simulate(workload("V1"), scheme, n_frames=n_frames,
                             config=config, network_model=buffered)
            assert run.drops <= bound.drops < n_frames // 10
            if scheme is BASELINE:
                # One frame per call slot, never before it: the same run.
                assert run.to_jsonable() == bound.to_jsonable()


class TestDisabledRealtimeIsInert:
    def test_paper_mode_bit_identical(self):
        """A disabled RealtimeConfig, however exotic, must leave the
        paper pipeline untouched."""
        exotic = RealtimeConfig(enabled=False, link_rate=1 * MBPS,
                                latency_budget=0.033, fec_group=2,
                                recovery="fec", seed=99)
        base = simulate(workload("V1"), GAB, n_frames=64, seed=3)
        other = simulate(workload("V1"), GAB, n_frames=64, seed=3,
                         config=_sim(exotic))
        assert base.energy.total == other.energy.total
        assert (base.timeline.finish == other.timeline.finish).all()
        assert base.concealed_blocks == other.concealed_blocks


class TestChaos:
    def _campaign(self):
        return run_chaos(regimes=CHAOS_REGIMES[:2], videos=("V1",),
                         sessions=2, n_frames=60, fleet_frame_cap=90,
                         seed=3)

    def test_json_round_trip(self):
        result = self._campaign()
        back = ChaosResult.from_jsonable(result.to_jsonable())
        assert back.to_jsonable() == result.to_jsonable()

    def test_round_trip_keeps_every_counter(self):
        # Every counter distinct and non-zero, so a from_jsonable that
        # forgets one (it would take the default 0) or swaps two fails;
        # a campaign's own cells leave some counters at 0.
        slo = RegimeSLO(regime="calm", cohort="fleet", sessions=1,
                        frames=2, misses=3, skipped=4, frozen=5,
                        downscaled=6, lost_blocks=7, content_blocks=8)
        slo.lateness.add_array(np.asarray([1e-3, 2e-2]))
        slo.recovery_energy.add_array(np.asarray([0.5]))
        slo.total_energy.add_array(np.asarray([9.0, 11.0]))
        back = RegimeSLO.from_jsonable(slo.to_jsonable())
        assert back.to_jsonable() == slo.to_jsonable()
        for name in ("sessions", "frames", "misses", "skipped", "frozen",
                     "downscaled", "lost_blocks", "content_blocks"):
            assert getattr(back, name) == getattr(slo, name), name
        result = ChaosResult(seed=9, n_jobs=10, regimes=("calm",),
                             slos={"calm/fleet": slo})
        again = ChaosResult.from_jsonable(result.to_jsonable())
        assert (again.seed, again.n_jobs, again.regimes) == (9, 10, ("calm",))
        assert again.to_jsonable() == result.to_jsonable()
        assert again.slo("calm", "fleet").downscaled == 6

    def test_default_controller_meets_every_deadline(self):
        # Pins the realtime controller's default tuning: a unit slip in
        # one of its thresholds makes every cell miss frames.
        result = run_chaos(sessions=2, n_frames=120, fleet_frame_cap=120)
        assert len(result.slos) == 8
        for key, slo in result.slos.items():
            assert slo.frames > 0, key
            assert slo.misses == 0, key

    @pytest.mark.parametrize("videos, sessions", [
        ((), 2),  # fleet titles come from videos: none to draw from
        (("V1",), -1),  # would report phantom empty fleet rows
    ])
    def test_degenerate_campaign_rejected(self, videos, sessions):
        with pytest.raises(ConfigError):
            run_chaos(videos=videos, sessions=sessions, n_frames=8)

    @pytest.mark.parametrize("cap", [59, 0, -1])
    def test_frame_cap_below_session_floor_rejected(self, cap):
        with pytest.raises(ConfigError, match="fleet_frame_cap"):
            run_chaos(sessions=1, n_frames=8, fleet_frame_cap=cap)

    def test_frame_cap_at_session_floor_plays_sixty_frames(self):
        result = run_chaos(regimes=CHAOS_REGIMES[:1], videos=("V1",),
                           sessions=2, n_frames=1, fleet_frame_cap=60)
        fleet = result.slos["calm/fleet"]
        assert fleet.sessions == 2 and fleet.frames == 120

    def test_report_covers_all_cells(self):
        report = self._campaign().report()
        for regime in ("calm", "bursty-loss"):
            assert regime in report
        for cohort in ("matrix", "fleet"):
            assert cohort in report

"""Degenerate inputs to the campaign drivers fail typed or not at all.

``run_chaos`` and ``run_fleet`` at the edges of their inputs (no
frames, no sessions, no regimes, no videos, a dead link, a fully
revoked thermal cap, more shards than chunks) must return a valid
result or raise a :mod:`repro.errors` exception, never a bare numpy or
Python error from deep inside a run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig, ThermalConfig
from repro.errors import ReproError
from repro.fleet import (
    FleetCalibration,
    FleetResult,
    PopulationSpec,
    calibrate,
    run_fleet,
)
from repro.realtime.chaos import (
    CHAOS_REGIMES,
    ChaosRegime,
    ChaosResult,
    run_chaos,
)

SPEC = PopulationSpec(titles=("V1",), calib_frames=8)

#: A zero-bandwidth link: the rate is scaled by 0 from t = 0.
DEAD_LINK = ChaosRegime(key="dead-link", description="no bandwidth",
                        rate_schedule=((0.0, 0.0),))

#: Boost revoked for the whole of every event slot.
REVOKED = replace(SimulationConfig(), thermal=ThermalConfig(
    enabled=True, seed=7, event_interval=1.0, cap_drop_rate=1.0,
    cap_drop_duty=1.0))


@pytest.fixture(scope="module")
def calibration() -> FleetCalibration:
    return calibrate(SPEC)


class TestRunChaosEdges:
    @given(n_frames=st.integers(0, 3), sessions=st.integers(0, 2),
           fleet_frame_cap=st.one_of(st.integers(0, 2),
                                     st.integers(59, 61)),
           regimes=st.lists(st.sampled_from(CHAOS_REGIMES + (DEAD_LINK,)),
                            max_size=2, unique_by=lambda regime: regime.key),
           videos=st.sampled_from([(), ("V1",)]), revoked=st.booleans(),
           seed=st.integers(0, 3))
    @example(n_frames=1, sessions=1, fleet_frame_cap=60, regimes=[],
             videos=("V1",), revoked=False, seed=0)
    @example(n_frames=1, sessions=0, fleet_frame_cap=1,
             regimes=list(CHAOS_REGIMES[:1]), videos=(), revoked=False,
             seed=0)
    @example(n_frames=1, sessions=1, fleet_frame_cap=60,
             regimes=[DEAD_LINK], videos=("V1",), revoked=True, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_valid_result_or_typed_error(self, n_frames, sessions,
                                         fleet_frame_cap, regimes, videos,
                                         revoked, seed):
        try:
            result = run_chaos(config=REVOKED if revoked else None,
                               regimes=regimes, videos=videos,
                               sessions=sessions, n_frames=n_frames,
                               fleet_frame_cap=fleet_frame_cap, seed=seed,
                               spec=SPEC)
        except ReproError:
            return
        assert result.n_jobs == len(regimes) * (len(videos) + sessions)
        cohorts = ("matrix", "fleet") if sessions else ("matrix",)
        assert set(result.slos) == {f"{regime.key}/{cohort}"
                                    for regime in regimes
                                    for cohort in cohorts}
        assert sum(slo.sessions for slo in result.slos.values()) \
            == result.n_jobs
        for slo in result.slos.values():
            if slo.cohort == "matrix":
                assert slo.frames == n_frames * len(videos)
            assert 0 <= slo.misses <= slo.frames
            assert np.isfinite(slo.total_energy.mean)
        assert ChaosResult.from_jsonable(
            result.to_jsonable()).to_jsonable() == result.to_jsonable()


class TestRunFleetEdges:
    @given(n_sessions=st.integers(1, 3), shards=st.integers(1, 4),
           contention=st.booleans(), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_valid_result_or_typed_error(self, calibration, n_sessions,
                                         shards, contention, seed):
        def run(n_shards: int) -> FleetResult:
            return run_fleet(SPEC, n_sessions, seed=seed, shards=n_shards,
                             contention=contention,
                             calibration=calibration)

        try:
            result = run(shards)
        except ReproError:
            return
        assert result.n_sessions == n_sessions
        assert result.cohort("fleet").count == n_sessions
        assert np.isfinite(result.cohort("fleet").moments[
            "total_energy"].mean)
        payload = result.to_jsonable()
        assert FleetResult.from_jsonable(payload).to_jsonable() == payload
        # More shards than chunks leaves stripes empty, not the result.
        assert run(1).to_jsonable() == payload

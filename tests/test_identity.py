"""Identity reductions: a front door at its identity setting is ``simulate``.

Each property plays a tiny run twice, once with a feature switched on
at a setting that should change nothing (or only the counters named),
and compares ``RunResult.to_jsonable()`` exactly.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.config import (
    GAB,
    GAB_DCC,
    MAB,
    FaultConfig,
    SimulationConfig,
    VideoConfig,
)
from repro.video import workload

_SCHEMES = {"MAB": MAB, "GAB": GAB, "GAB+DCC": GAB_DCC}

_runs = dict(
    scheme_name=st.sampled_from(sorted(_SCHEMES)),
    profile_key=st.sampled_from(["V1", "V3", "V8"]),
    geometry=st.sampled_from([(32, 16), (64, 32)]),
    n_frames=st.integers(1, 12),
    seed=st.integers(0, 3),
    unbounded=st.booleans(),
)


def _play(scheme_name, profile_key, geometry, n_frames, seed, unbounded,
          faults=None):
    width, height = geometry
    config = SimulationConfig(video=VideoConfig(width=width, height=height))
    if faults is not None:
        config = replace(config, faults=faults)
    return simulate(workload(profile_key), _SCHEMES[scheme_name],
                    n_frames=n_frames, config=config, seed=seed,
                    unbounded_mach=unbounded).to_jsonable()


class TestFaultIdentities:
    @given(fault_seed=st.integers(0, 2**16), verify=st.booleans(),
           max_retries=st.integers(0, 5),
           panic_after=st.integers(1, 4), **_runs)
    @settings(max_examples=25, deadline=None)
    def test_zero_rates_equal_no_faults(self, fault_seed, verify,
                                        max_retries, panic_after, **run):
        faults = FaultConfig(seed=fault_seed, verify_digests=verify,
                             max_retries=max_retries,
                             panic_after_failures=panic_after)
        assert _play(**run, faults=faults) == _play(**run)

    @given(fault_seed=st.integers(0, 2**16),
           rate=st.sampled_from([1e-3, 0.05, 0.5, 1.0]), **_runs)
    @settings(max_examples=25, deadline=None)
    def test_unverified_collisions_only_count(self, fault_seed, rate,
                                              **run):
        clean = _play(**run)
        faulty = _play(**run, faults=FaultConfig(
            digest_collision=rate, seed=fault_seed, verify_digests=False))
        moved = {"injected_collisions", "silent_collisions"}
        assert ({k: v for k, v in faulty.items() if k not in moved}
                == {k: v for k, v in clean.items() if k not in moved})
        assert (faulty["silent_collisions"] - clean["silent_collisions"]
                == faulty["injected_collisions"] >= 0)
        assert clean["injected_collisions"] == 0

"""Argument handling and run matrix of ``tools/digest_matrix.py`` (no
simulation is run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def digest_matrix():
    spec = importlib.util.spec_from_file_location(
        "digest_matrix", _ROOT / "tools" / "digest_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arguments(digest_matrix, capsys):
    assert digest_matrix.parse_args(["HEAD~1"]).parent == "HEAD~1"
    assert (digest_matrix.FRAMES, digest_matrix.SEED) == (96, 7)
    for bad in ([], ["HEAD", "HEAD~1"], ["HEAD", "--frames", "8"]):
        with pytest.raises(SystemExit):
            digest_matrix.parse_args(bad)
    capsys.readouterr()


def test_matrix(digest_matrix):
    cases = digest_matrix.matrix()
    names = [digest_matrix.case_name(case) for case in cases]
    assert len(set(names)) == len(cases)
    # Every video x scheme x thermal combination of the base matrix:
    # the four schemes that play a blank stream, the MACH schemes, and
    # DCC alone (pixels without MACH).
    base = {(c["video"], c["scheme"], c["thermal"]) for c in cases
            if set(c) == {"video", "scheme", "thermal"}}
    assert base == {(video, scheme, thermal)
                    for video in ("V1", "V3", "V8", "V14")
                    for scheme in ("BASELINE", "BATCHING", "RACING",
                                   "RACE_TO_SLEEP", "MAB", "GAB", "GAB_DCC",
                                   "DCC_ONLY")
                    for thermal in (False, True)}
    options = [c for c in cases if set(c) != {"video", "scheme", "thermal"}]
    # A blank stream concealing bit errors.
    assert {"video": "V8", "scheme": "BASELINE", "thermal": False,
            "faults": {"block_bit_error": 2e-5}} in options
    assert any(c.get("buffer_policy") == "eager" for c in options)
    assert any(c.get("use_display_cache") is False for c in options)
    assert any(c.get("use_mach_buffer") is False for c in options)
    assert any(c.get("unbounded_mach") is True for c in options)
    faults = [c["faults"] for c in options if "faults" in c]
    assert {f.get("verify_digests", True) for f in faults} == {True, False}
    machs = [c["mach"] for c in options if "mach" in c]
    assert {"co_mach": True} in machs
    # Injected collisions under CO-MACH and the unbounded MACH, and
    # unverified ones under thermal throttling.
    collision = {"digest_collision": 0.01}
    assert {"video": "V8", "scheme": "GAB", "thermal": False,
            "mach": {"co_mach": True}, "faults": collision} in options
    assert {"video": "V8", "scheme": "GAB", "thermal": False,
            "unbounded_mach": True, "faults": collision} in options
    assert {"video": "V3", "scheme": "GAB_DCC", "thermal": True,
            "faults": {**collision, "verify_digests": False}} in options
    assert {"digest_scheme": "weak-sum"} in machs
    # The DRAM replay without an FR-FCFS quantum (cut at time
    # boundaries), and over raw_dram's 600-frame run of ~20 windows:
    # with the quantum, without it (time cuts on deferred draws'
    # bounds), and GAB with bit errors (concealment reads deferred
    # across windows).
    no_quantum = {(c["video"], c["scheme"], c.get("frames")) for c in options
                  if c.get("dram") == {"scheduler_quantum": 0.0}}
    assert no_quantum == {("V8", "BASELINE", None), ("V8", "GAB", None),
                          ("V8", "BASELINE", 600)}
    long_runs = [c for c in options if c.get("frames") == 600]
    assert all(c["video"] == "V8" and not c["thermal"] for c in long_runs)
    assert {(c["scheme"], json.dumps(c.get("dram")),
             json.dumps(c.get("faults"))) for c in long_runs} == {
        ("BASELINE", "null", "null"),
        ("BASELINE", '{"scheduler_quantum": 0.0}', "null"),
        ("GAB", "null", '{"block_bit_error": 2e-05}')}
    # run_fleet over the default population: sessions x contention x
    # shards, nothing else.
    fleets = [c for c in cases if "population" in c]
    assert {c["population"] for c in fleets} == {"default"}
    assert sorted((c["sessions"], c["contention"], c["shards"])
                  for c in fleets) == sorted(
        (sessions, contention, shards)
        for sessions in (1, 8_193, 50_001)
        for contention in (True, False)
        for shards in (1, 3))
    # calibrate() itself, at two calibration seeds.
    assert sorted(c["calib_seed"] for c in cases
                  if "calibration" in c) == [7, 11]

"""Tests for the validation suite and the config-sweep helper."""

from __future__ import annotations

import importlib

import pytest

from repro.analysis import get_config_field, set_config_field, sweep_config
from repro.config import BASELINE, SimulationConfig
from repro.core.session import Pause, Play, SessionSimulator
from repro.errors import ConfigError
from repro import cli, validation
from repro.validation import (
    RUN_SETS,
    SYSTEM_CLAIMS,
    ClaimCheck,
    check_claims,
    summarize,
)
from repro.video import workload


class TestConfigSweep:
    def test_get_nested_field(self):
        config = SimulationConfig()
        assert get_config_field(config, "dram.channels") == 2
        assert get_config_field(config, "mach.num_machs") == 8

    def test_set_nested_field(self):
        config = SimulationConfig()
        varied = set_config_field(config, "dram.act_pre_energy", 1e-9)
        assert varied.dram.act_pre_energy == 1e-9
        # Original untouched; siblings preserved.
        assert config.dram.act_pre_energy != 1e-9
        assert varied.dram.channels == config.dram.channels
        assert varied.video is config.video

    def test_set_top_level_field(self):
        config = SimulationConfig()
        varied = set_config_field(config, "seed", 99)
        assert varied.seed == 99

    def test_unknown_path_raises(self):
        config = SimulationConfig()
        with pytest.raises(ConfigError):
            set_config_field(config, "dram.bogus", 1)
        with pytest.raises(ConfigError):
            get_config_field(config, "nope.nope")
        with pytest.raises(ConfigError):
            set_config_field(config, "dram..channels", 1)

    def test_sweep_collects_metric(self):
        config = SimulationConfig()
        results = sweep_config(
            config, "mach.num_machs", [2, 4],
            lambda cfg, value: cfg.mach.num_machs * 10)
        assert results == [(2, 20), (4, 40)]


class TestValidationMachinery:
    def test_claim_check_str(self):
        check = ClaimCheck("x", "~1", 0.5, True)
        assert "PASS" in str(check)
        assert "FAIL" in str(ClaimCheck("x", "~1", 0.5, False))

    def test_summarize_counts(self):
        checks = [ClaimCheck("a", "1", 1.0, True),
                  ClaimCheck("b", "2", 0.0, False)]
        text = summarize(checks)
        assert "1/2 claims reproduced" in text

    @pytest.mark.slow
    def test_full_suite_reproduces(self, validate_ledger):
        """Every bounded claim row defined on validate's run set holds
        on the ledger ``repro validate`` computes at its defaults."""
        checks = check_claims(validate_ledger, "validate")
        assert checks and all(check.passed for check in checks), (
            summarize(checks))

    @pytest.mark.slow
    def test_cli_checks_the_validate_run_set(self, validate_ledger,
                                             monkeypatch, capsys):
        """``repro validate`` plays validate's run set at its default
        frames, checks the claim table on it and exits 0."""
        asked = []

        def ledger(frames, videos, progress=None):
            asked.append((frames, videos))
            return validate_ledger

        monkeypatch.setattr(validation, "paper_ledger", ledger)
        assert cli.main(["validate"]) == 0
        assert asked == [RUN_SETS["validate"]]
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for _claim, node in SYSTEM_CLAIMS:
            assert node in out

    @pytest.mark.parametrize("claim, node", SYSTEM_CLAIMS,
                             ids=[node.rsplit("::", 1)[1]
                                  for _claim, node in SYSTEM_CLAIMS])
    def test_system_claims_name_real_tests(self, claim, node):
        """Each system claim points at a test that exists."""
        path, *names = node.split("::")
        module = importlib.import_module(
            path.removesuffix(".py").replace("/", "."))
        target = module
        for name in names:
            target = getattr(target, name)
        assert callable(target), claim


class TestPanelSelfRefresh:
    def test_psr_cuts_pause_power(self):
        events = [Play(workload("V8"), 24), Pause(10.0)]
        plain = SessionSimulator(BASELINE, seed=1).run(events)
        psr = SessionSimulator(BASELINE, seed=1,
                               panel_self_refresh=True).run(events)
        assert psr.pause_energy < plain.pause_energy
        assert psr.playback_energy == pytest.approx(plain.playback_energy)

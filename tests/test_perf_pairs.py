"""Argument handling of ``tools/perf_pairs.py`` (no benchmark is run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", _ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arguments(perf_pairs, capsys):
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    args = perf_pairs.parse_args(["HEAD~1"])
    assert args.parent == "HEAD~1"
    assert args.pairs == 10 and args.seed == 7
    assert args.seconds == bench["run_seconds"]
    assert args.workload == [w["name"] for w in bench["workloads"]]

    args = perf_pairs.parse_args(
        ["abc123", "--pairs", "5", "--workload", "mach_hits",
         "--workload", "raw_dram", "--seed", "3"])
    assert (args.parent, args.pairs, args.seed) == ("abc123", 5, 3)
    assert args.workload == ["mach_hits", "raw_dram"]

    for bad in (["HEAD", "--pairs", "0"], ["HEAD", "--workload", "nope"],
                ["HEAD", "--seed", "-1"], []):
        with pytest.raises(SystemExit):
            perf_pairs.parse_args(bad)
    capsys.readouterr()

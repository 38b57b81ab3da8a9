"""Self-tests of the benchmark harness, at reduced sizes (a few seconds).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from . import compare, harness, layers, probe, tracing, workloads
from .worker import TRACED_REPS, _traced_pass, timed_rep

#: Every workload at a size that runs in about a second.
REDUCED = {
    "mach_hits": (workloads._playback("V8", "GAB", 24, thermal=False), 24),
    "raw_dram": (workloads._playback("V8", "BASELINE", 24, thermal=False), 24),
    "dcc_misses_throttled": (
        workloads._playback("V3", "GAB_DCC", 24, thermal=True), 24),
    "fleet_300k": (workloads._fleet(20_000), 20_000),
}


class _Result:
    """Stand-in for a simulator result: anything with ``to_jsonable``."""

    def __init__(self, value: int) -> None:
        self.value = value

    def to_jsonable(self) -> dict:
        return {"value": self.value}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_digest_equals_untraced(name):
    setup, items = REDUCED[name]
    workload = dataclasses.replace(workloads.WORKLOADS[name], setup=setup,
                                   items=items)
    rep = workload.setup(11)
    untraced = workloads.digest(rep())
    traced = _traced_pass(workload, 11, rep, ref_probe_s=probe.probe_once())
    assert traced["digests"] == [untraced] * TRACED_REPS
    assert harness.trace_sound(traced)
    assert 0.0 < traced["metrics"]["trace.overhead_frac"] < 0.5
    assert traced["metrics"]["video.synthesis.ms_per_frame"] > 0


def test_trace_sound_needs_restored_wrappers_coverage_and_overhead():
    def traced(restored=True, coverage=0.99, overhead=0.02):
        return {"restored": restored,
                "metrics": {"trace.coverage": coverage,
                            "trace.overhead_frac": overhead}}
    assert harness.trace_sound(traced())
    assert not harness.trace_sound(traced(restored=False))
    assert not harness.trace_sound(traced(coverage=0.9))
    assert not harness.trace_sound(traced(overhead=-0.1))


def test_each_root_is_scaled_by_its_own_probe():
    spans = [["setup", 10.0, 14.0, -1], ["a:x", 11.0, 13.0, 0],
             ["rep", 20.0, 22.0, -1], ["a:x", 20.5, 21.5, 2]]
    assert tracing.rescale(spans, [0.5, 2.0]) == [
        ["setup", 0.0, 2.0, -1], ["a:x", 0.5, 1.5, 0],
        ["rep", 2.0, 6.0, -1], ["a:x", 3.0, 5.0, 2]]
    with pytest.raises(ValueError):
        tracing.rescale(spans, [1.0])


def test_overhead_is_the_tracer_share_of_the_traced_time():
    spans = [["rep", 0.0, 1.0, -1]] + [["a:x", i / 10, (i + 1) / 10, 0]
                                      for i in range(10)]
    metrics = layers.layer_metrics(spans, [], 0, 0, 1, span_cost_s=0.01)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1 / 0.9)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert tracing.span_cost_s(2000) > 0


def test_every_wrapped_attribute_is_restored():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError), tracing.installed(tracing.Tracer()):
        during = tracing.snapshot()
        raise RuntimeError("fail inside the traced block")
    assert all(during[key] is not before[key] for key in before)
    after = tracing.snapshot()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_children():
    spans = [
        ["rep", 0.0, 10.0, -1],
        ["a:x", 1.0, 6.0, 0],
        ["b:y", 2.0, 3.0, 1],
        ["b:y", 4.0, 5.0, 1],
        ["a:w", 5.0, 5.5, 1],
        ["c:z", 7.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.0, 0.5, 2.0]
    rows = tracing.ledger(spans)
    assert rows["a"] == {"calls": 2, "incl_s": 5.0, "self_s": 3.0}
    assert rows["b"] == {"calls": 2, "incl_s": 2.0, "self_s": 2.0}
    assert rows["a:x"]["self_s"] == 2.5
    assert rows["total"]["incl_s"] == 10.0
    assert rows["total"]["coverage"] == pytest.approx(0.7)


def test_overlapping_children_are_covered_once():
    spans = [["p:p", 0.0, 10.0, -1], ["c:c", 1.0, 4.0, 0],
             ["c:c", 3.0, 6.0, 0], ["c:c", 9.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_generator_wrapper_spans_each_pulled_item():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def items():
        yield from "abc"

    with tracer.span("rep"):
        assert list(tracer.wrap_generator("g:items", items)()) == list("abc")
    assert [s[0] for s in tracer.spans] == ["rep"] + ["g:items"] * 3
    assert all(s[3] == 0 for s in tracer.spans[1:])


def test_injected_mismatch_and_exception_count_as_failed():
    reps = [timed_rep(lambda v=v: _Result(v), workloads.digest,
                      lambda: 0.03) for v in (1, 1, 2)]
    reps.append(timed_rep(lambda: 1 // 0, workloads.digest, lambda: 0.03))
    assert "ZeroDivisionError" in reps[-1]["error"]
    digests = [r.get("digest") for r in reps]
    assert harness.count_failures(digests, None) == 2
    pinned = workloads.digest(_Result(2))
    assert harness.count_failures(digests, pinned) == 3
    assert harness.count_failures(digests[:2], None) == 0


def test_pinned_digest_applies_to_its_seed_and_host_only():
    ref = {"seed": 7, "canary": "c", "digests": {"w": "d"}}
    assert harness.pinned_digest("w", 7, "c", ref) == "d"
    assert harness.pinned_digest("w", 11, "c", ref) is None
    assert harness.pinned_digest("w", 7, "other", ref) is None


def test_probe_normalisation_arithmetic():
    assert probe.to_ref(2.0, 0.066, 0.033) == pytest.approx(1.0)
    assert probe.to_ref(2.0, 0.033, 0.033) == 2.0
    assert probe.to_ref(1.5, 0.011, 0.033) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        probe.to_ref(1.0, 0.0, 0.033)
    assert probe.probe_once() > 0


@pytest.mark.parametrize("change, expected", [
    ([120.0 + i for i in range(10)], "improved"),
    ([80.0 + i for i in range(10)], "worse"),
    ([100.5 + i * 0.1 for i in range(10)], "unchanged"),
    ([130.0, 131.0], "unchanged"),
])
def test_compare_verdicts(change, expected):
    parent = [100.0 + i * 0.2 for i in range(10)]
    assert compare.verdict(parent, change, "higher", 0.1) == expected


def test_compare_unresolved_when_spread_exceeds_bound():
    parent = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    change = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    assert compare.verdict(parent, change, "higher", 0.1) == "unresolved"
    assert compare.verdict(parent, [200.0] * 10, "lower", 0.1) == "unresolved"
    # Every change run beats every parent run, but by less than the
    # parent's spread: no regression, and no claimable gain either.
    assert compare.verdict(parent, [150.0] * 10, "higher", 0.1) == "unchanged"
    assert compare.verdict(parent, [160.0] * 10, "higher", 0.1) == "improved"


def test_compare_rejects_sets_measured_with_other_settings():
    def results(seed, run_seconds):
        record = {"end_to_end": {"m": {"value": 1.0}}}
        return {"sets": [{"seed": seed, "run_seconds": run_seconds,
                          "workloads": {"w": record}}]}
    metrics = [{"name": "m", "better": "higher", "bound": 0.1}]
    assert compare.compare(results(7, 20), results(7, 20), metrics) == {
        "w": {"m": ("unchanged", 0.0)}}
    for change in (results(8, 20), results(7, 10)):
        with pytest.raises(compare.MismatchError):
            compare.compare(results(7, 20), change, metrics)


def test_benchmark_json_matches_the_harness():
    spec = harness.benchmark_spec()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_per_s", "setup_s", "peak_rss_mb"}
    units = layers.units()
    for metric in spec["per_layer"]:
        assert units[metric["name"]] == metric["unit"]
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(entry["name"])


def test_listed_per_layer_metrics_are_nonzero_on_every_workload():
    # A layer a workload never enters reads exactly 0 on every run; such
    # metrics stay in the printed and stored ledger, not in BENCHMARK.json.
    listed = [m["name"] for m in harness.benchmark_spec()["per_layer"]]
    sets = harness.load_json(harness.HERE / "results.json")["sets"]
    for record in (r for s in sets for r in s["workloads"].values()):
        assert [m for m in listed if record["per_layer"][m] == 0] == []

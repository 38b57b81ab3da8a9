"""The paper-fidelity ledger: every figure's shape over EXPERIMENTS.json.

``tools/make_experiments.py`` writes ``EXPERIMENTS.json`` from
``repro.validation.paper_ledger`` (every Table 1 video under the Fig. 11
schemes at 120 frames, seed 7, plus the single-figure studies) and
renders ``EXPERIMENTS.md`` from it.  These checks read the checked-in
file, so they cost no simulation; CI regenerates the file and fails on
any byte of drift, which keeps it the output of the current code.

Every bound on a paper number lives in the claim table
(``repro.validation.CLAIMS``): ``test_claim_holds`` checks each row on
the checked-in ledger and, where the row is defined there, on the tiny
ledger the ``tiny_ledger`` fixture computes.  The figure tests below
assert the shapes the table does not hold (orderings, sweeps and keys)
and name the table rows of their figure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro import validation
from repro.validation import CLAIMS, RUN_SETS, measure, render

_ROOT = Path(__file__).resolve().parent.parent

_CLAIM_AT = {claim.path: claim for claim in CLAIMS}


@pytest.fixture(scope="module")
def ledger() -> Dict[str, Any]:
    return json.loads((_ROOT / "EXPERIMENTS.json").read_text(encoding="utf-8"))


def _shape(value: Any) -> Any:
    """Key structure and leaf types of a JSON value."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _per_video_tables(ledger: Dict[str, Any]) -> Dict[str, Any]:
    """The ledger's tables keyed by video, by figure."""
    return {"matrix": ledger["per_video"],
            "fig09": ledger["fig09"]["per_video_optimal_write_savings"],
            "fig10": ledger["fig10"]["per_video_naive_extra_reads"],
            "sec62": ledger["sec62"]["per_video_extra_write_savings"]}


def _assert_claims(ledger: Dict[str, Any], *paths: str) -> None:
    """The claim-table rows at ``paths`` hold on the checked-in ledger."""
    for path in paths:
        claim = _CLAIM_AT[path]
        assert claim.bound and claim.holds(ledger), (
            f"{claim.label}: {measure(ledger, path)} vs {claim.bound_text}")


# --- the claim table --------------------------------------------------------


@pytest.mark.parametrize("claim", [claim for claim in CLAIMS if claim.bound],
                         ids=lambda claim: claim.path)
def test_claim_holds(claim, ledger, tiny_ledger):
    """Each bounded row holds on every test run set it is defined on."""
    for run_set, data in (("committed", ledger), ("tiny", tiny_ledger)):
        if run_set in claim.on:
            assert claim.holds(data), (
                f"{run_set}: {claim.label} = {measure(data, claim.path)}, "
                f"bound {claim.bound_text}")


def test_claim_table_is_well_formed(ledger):
    """One row per key path (``render`` finds rows by path); every path
    resolves on the checked-in ledger; every row is defined on the
    committed run set, and only on known ones."""
    assert len(_CLAIM_AT) == len(CLAIMS)
    for claim in CLAIMS:
        measure(ledger, claim.path)
        assert "committed" in claim.on and claim.on <= set(RUN_SETS)


def test_each_planned_run_plays_once(monkeypatch):
    """No two ``simulate`` calls of a ledger share every input."""
    calls = []
    play = validation.simulate

    def record(source, scheme, **kwargs):
        calls.append((source.key, scheme, tuple(sorted(kwargs.items()))))
        return play(source, scheme, **kwargs)

    monkeypatch.setattr(validation, "simulate", record)
    validation.paper_ledger(*RUN_SETS["tiny"])
    assert calls and len(set(calls)) == len(calls)


# --- the ledger itself ------------------------------------------------------


def test_markdown_is_rendered_from_the_json(ledger):
    markdown = (_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert render(ledger) == markdown


def test_ledger_function_emits_every_checked_key(ledger, tiny_ledger):
    """A tiny run set has the checked-in ledger's exact key structure
    (less ``float_canary``, which the writing tool adds), so renaming a
    key in ``paper_ledger`` fails here, not only in CI's regenerate
    step."""
    tiny = tiny_ledger
    assert tiny["videos"] == ["V1", "V8"]
    for name, table in _per_video_tables(tiny).items():
        assert list(table) == ["V1", "V8"], name
        assert _shape(table["V8"]) == _shape(
            _per_video_tables(ledger)[name]["V8"]), name

    def rest(data: Dict[str, Any]) -> Dict[str, Any]:
        """All but the per-video tables and the host fingerprint."""
        data = json.loads(json.dumps(data))
        for key in ("videos", "per_video", "float_canary"):
            data.pop(key, None)
        del data["fig09"]["per_video_optimal_write_savings"]
        del data["fig10"]["per_video_naive_extra_reads"]
        del data["sec62"]["per_video_extra_write_savings"]
        return data

    assert _shape(rest(tiny)) == _shape(rest(ledger))
    assert render(tiny).startswith("# EXPERIMENTS")


def test_ledger_covers_table1_at_120_frames(ledger):
    assert ledger["frames"] == 120 and ledger["seed"] == 7
    assert ledger["videos"] == list(ledger["table1"])
    for table in _per_video_tables(ledger).values():
        assert list(table) == ledger["videos"]


# --- Fig. 1a / 2 / Sec. 2.2 -------------------------------------------------


def test_fig01a_breakdown(ledger):
    fig = ledger["fig01a"]
    # The decoder+memory dominate energy, as the paper reports (~75 %).
    assert (fig["vd_energy_share"] + fig["memory_energy_share"]
            + fig["display_energy_share"]) > 0.7
    assert fig["memory_energy_share"] > fig["vd_energy_share"]


def test_fig02b_region_mix(ledger):
    _assert_claims(ledger, "mean.regions.I",
                   "mean.regions.III + mean.regions.IV", "mean.drop_rate")


def test_fig02_cdf_series(ledger):
    stacked = ledger["fig02"]["v8_stacked_time"]
    base, batch = stacked["Baseline"], stacked["Batching"]
    # Batching slashes the per-frame transition share (paper: 16x,
    # down to ~1.2 % of frame time) and grows deep sleep.
    assert batch["transition"] < base["transition"] / 4
    assert batch["transition"] < 0.03
    assert batch["s3"] > base["s3"]


def test_sec22_transition_overheads(ledger):
    sec = ledger["sec22"]
    assert sec["v8_transition_time_share"] > 0.04
    assert sec["v8_transition_energy_share"] > 0.04


# --- Fig. 4 / Sec. 3.3 / Fig. 5 / Fig. 6 ----------------------------------


def test_fig04ab_batching_effect(ledger):
    assert ledger["mean"]["vd_energy_cut"] > 0.05


def test_fig04cd_racing_vs_rts(ledger):
    fig = ledger["fig04"]
    transition = fig["v8_transition_energy"]
    assert transition["Racing"] > transition["Baseline"]
    assert transition["Race-to-Sleep"] < transition["Racing"] / 5
    assert fig["v8_s3"]["Race-to-Sleep"] > fig["v8_s3"]["Racing"]


def test_sec33_rts_takeaways(ledger):
    mean = ledger["mean"]
    assert mean["rts_s3"] > mean["baseline_s3"] * 3


def test_fig05_act_pre_vs_frequency(ledger):
    for video, row in ledger["per_video"].items():
        hits = row["row_hit_rate"]
        assert hits["Racing"] > hits["Baseline"], (
            f"racing must improve the row-hit rate on {video}")


def test_fig05_energy_exchange(ledger):
    fig = ledger["fig05"]
    assert fig["v8_extra_vd_mj_per_frame"] > 0
    assert (fig["v8_act_pre_saved_mj_per_frame"]
            > fig["v8_extra_vd_mj_per_frame"]), (
        "memory savings must outweigh the VD's frequency cost")


@pytest.mark.parametrize("key, paper_mj", [
    ("v8_extra_vd_mj_per_frame", 0.5),
    ("v8_act_pre_saved_mj_per_frame", 1.0),
])
def test_fig05_rows_in_paper_units(ledger, tiny_ledger, key, paper_mj):
    """Each Fig. 5 row's claim is the 10x band around the paper's
    mJ/frame, so a dropped or doubled unit conversion (1000x) cannot
    pass.  The tiny ledger is computed by the current code, so a slip
    in the ledger code fails before the checked-in file is
    regenerated."""
    claim = _CLAIM_AT[f"fig05.{key}"]
    assert claim.paper == paper_mj
    assert claim.bound == ((">", paper_mj / 10), ("<", paper_mj * 10))
    for name, data in (("checked-in", ledger), ("tiny", tiny_ledger)):
        assert claim.holds(data), name


def test_fig06_batch_sweep(ledger):
    low, high = ledger["fig06"]["low_freq"], ledger["fig06"]["high_freq"]
    # Larger batches help at both frequencies.
    assert low[-1] < low[0]
    assert high[-1] < high[0]
    # The best configuration is racing + max batching.
    assert high[-1] == min(low + high)
    # Racing without batching costs energy (Fig. 11's Racing bar).
    assert high[0] > low[0]


# --- Fig. 7 / Table 1 -------------------------------------------------------


def test_fig07a_vd_cache_study(ledger):
    study = ledger["fig07a"]
    assert [row["capacity_bytes"] for row in study] == [
        2048, 4096, 8192, 16384, 32768]
    assert study[-1]["compute_miss_rate"] < study[0]["compute_miss_rate"]
    # The writeback stream never caches, at any capacity.
    for row in study:
        assert row["writeback_miss_rate"] > 0.9


def test_fig07b_content_census(ledger):
    _assert_claims(ledger, "mean.census.intra", "mean.census.inter",
                   "mean.census.none", "mean.census.match")


def test_table1_workloads(ledger):
    table = ledger["table1"]
    assert len(table) == 16
    # Frame counts are the paper's.
    assert table["V1"]["n_frames"] == 6507
    assert table["V12"]["n_frames"] == 10147
    # The test-card and Skyfall profiles are the most self-similar.
    match = {video: row["census"]["match"]
             for video, row in ledger["per_video"].items()}
    assert match["V1"] > match["V3"]
    assert match["V8"] > match["V3"]


def test_table2_configuration(ledger):
    table = ledger["table2"]
    assert table["vd_low_freq_power"] == 0.30
    assert table["vd_high_freq_power"] == 0.69
    assert table["dram_channels"] == 2 and table["dram_banks_per_rank"] == 8
    assert table["num_machs"] == 8 and table["entries_per_mach"] == 256
    assert table["mach_total_entries"] == 2048
    assert table["display_cache_bytes"] == 16 * 1024
    assert table["display_power"] == 0.12


# --- Fig. 9 / Fig. 10 -------------------------------------------------------


def test_fig09a_savings(ledger):
    savings = ledger["mean"]["write_savings"]
    fig = ledger["fig09"]
    assert fig["mean_optimal_write_savings"] > savings["GAB"], (
        "the capacity oracle must beat LRU")
    assert fig["optimal_write_savings"] > fig["gab_write_savings"], (
        "the capacity oracle must beat LRU on the rendered 4-video mix")


def test_fig09b_top_digest_share(ledger):
    shares = ledger["fig09"]["v8_top_digest_share"]
    # The top gab digest (the flat block) dominates far more than the
    # top mab digest can.
    assert shares["GAB"]["top1"] > shares["MAB"]["top1"] * 1.5
    assert shares["GAB"]["top1"] > 0.3


def test_fig10c_display_cache_size(ledger):
    savings = [row["read_savings"]
               for row in ledger["fig10"]["v8_cache_size_sweep"]]
    # Saturating curve: the last doubling buys little.
    assert savings[-1] - savings[-2] < savings[-2] - savings[0] + 0.05
    assert savings[-1] >= savings[0]


def test_fig10d_record_split(ledger):
    _assert_claims(ledger, "mean.digest_fraction", "mean.fragmentation_rate")


def test_fig10e_dc_savings(ledger):
    assert ledger["fig10"]["mean_naive_extra_reads"] > 0.3, (
        "the pointer layout without display caching must cost extra reads")


# --- Fig. 11 / Sec. 6.2 -----------------------------------------------------


def test_fig11_normalized_energy(ledger):
    avg = ledger["mean"]["normalized_energy"]
    assert avg["Race-to-Sleep"] < avg["Batching"]
    assert avg["GAB"] < avg["MAB"]
    # GAB wins on every single video (paper: "GAB outperforms all other
    # schemes in every scenario").
    for video, row in ledger["per_video"].items():
        normalized = row["normalized_energy"]
        assert normalized["GAB"] == min(normalized.values()), (
            f"GAB not best on {video}")
    # V9 is the paper's MAB regression: MAB worse than Race-to-Sleep.
    v9 = ledger["per_video"]["V9"]["normalized_energy"]
    assert v9["MAB"] > v9["Race-to-Sleep"]


def test_fig11_component_stacks(ledger):
    """Each V8 component stack adds up to that scheme's Fig. 11 bar."""
    bars = ledger["per_video"]["V8"]["normalized_energy"]
    stacks = ledger["fig11"]["v8_stacks"]
    assert list(stacks) == list(bars)
    for scheme, stack in stacks.items():
        assert sum(stack.values()) == pytest.approx(bars[scheme], rel=1e-12)


def test_sec62_gab_plus_dcc(ledger):
    assert ledger["sec62"]["mean_extra_write_savings"] > 0.08, (
        "GAB must add savings on top of DCC")


# --- Fig. 12 / Sec. 6.3 -----------------------------------------------------


def test_fig12a_frame_buffers_vs_machs(ledger):
    rows = ledger["fig12a"]
    footprints = [row["peak_footprint_mb"] for row in rows]
    assert footprints == sorted(footprints), (
        "more MACHs must retain more frame-buffer memory")
    # More MACHs also find more (or equal) matches.
    assert rows[-1]["write_savings"] >= rows[0]["write_savings"] - 0.02


def test_fig12b_mach_buffer_entries(ledger):
    hit_rates = [row["hit_rate"] for row in ledger["fig12b"]]
    assert hit_rates[-1] >= hit_rates[0]


def test_fig12c_mab_size(ledger):
    best = max(ledger["fig12c"], key=lambda row: row["write_savings"])
    assert best["mab_size"] == "4x4", (
        f"expected 4x4 optimal, got {best['mab_size']}")


def test_fig12d_hash_comparison(ledger):
    table = ledger["fig12d"]
    for good in ("crc32", "md5", "sha1"):
        assert table[good]["rate"] < 1e-3, f"{good} must be near-collision-free"
    assert table["weak-sum"]["collisions"] > table["crc32"]["collisions"], (
        "the weak checksum must collide more")


def test_sec63_co_mach(ledger):
    # With CO-MACH no collision goes unnoticed.
    assert ledger["sec63"]["co_mach_crc48"]["silent"] == 0


# --- Sec. 3.3 / 4.4 / 6.4 / 7 extension studies ----------------------------


def test_sec33_preroll_sweep(ledger):
    """Race-to-Sleep adapts to however many frames are buffered."""
    study = ledger["sec33_preroll"]
    assert study["frames"] == 96
    rows = study["rows"]
    assert [row["preroll_frames"] for row in rows] == [4, 16, 120]
    for row in rows:
        assert row["rts_normalized_energy"] < 1.0, (
            "RtS must save energy at every buffer depth")
        assert row["rts_drops"] <= row["baseline_drops"], (
            "RtS must never drop more than baseline")
    # With a healthy buffer RtS recovers its zero-drop property.
    assert rows[-1]["rts_drops"] == 0
    # Deeper buffers allow fuller batches and at least as much saving.
    assert (rows[-1]["rts_normalized_energy"]
            <= rows[0]["rts_normalized_energy"] + 0.02)


def test_sec44_coalescing_ablation(ledger):
    study = ledger["sec44_coalescing"]
    assert study["frames"] == 96
    assert study["uncoalesced"]["energy"] > study["coalesced"]["energy"], (
        "dropping the coalescing buffers must cost energy")


def test_sec64_extension_pipelines(ledger):
    study = ledger["sec64_pipelines"]
    assert study["frames"] == 48
    assert list(study["per_video"]) == ["V1", "V8", "V12"]
    for row in study["per_video"].values():
        assert row["recording_savings"] > 0.05
        assert row["render_savings"] > 0.05


def test_sec7_slack_dvfs_vs_rts(ledger):
    study = ledger["sec7_slack_dvfs"]
    assert study["frames"] == 96
    assert list(study["per_video"]) == ["V1", "V6", "V8"]
    for row in study["per_video"].values():
        assert row["rts_drops"] == 0, "Race-to-Sleep must never drop"
        assert row["dvfs_drops"] > 0, (
            "slack DVFS must drop frames on this content")


# --- delivery (BurstLink, PAPERS.md) ----------------------------------------


def test_delivery_burst_vs_steady(ledger):
    """Burst downloads must beat steady at an equal stall count, on
    every trace seed (a claim row each)."""
    rows = ledger["delivery_burst"]
    assert [row["trace_seed"] for row in rows] == [0, 7, 11]
    for index in range(len(rows)):
        row = f"delivery_burst.{index}"
        _assert_claims(ledger, f"{row}.burst_radio / {row}.steady_radio",
                       f"{row}.burst_stalls - {row}.steady_stalls")


def test_delivery_abr_policies(ledger):
    policies = ledger["delivery_abr"]
    # The adaptive policies deliver more bits than the floor rung.
    assert (policies["bba"]["delivered_mbps"]
            > policies["fixed-0"]["delivered_mbps"])
    assert (policies["rate"]["delivered_mbps"]
            > policies["fixed-0"]["delivered_mbps"])
    # Higher delivered bitrate costs more radio-active energy.
    assert policies["fixed-top"]["radio"] > policies["fixed-0"]["radio"]


def test_delivery_tail_timer_sweep(ledger):
    """Burst savings come from idle time the tail timer doesn't eat:
    burst mode's idle periods shrink as the tail timer grows."""
    rows = ledger["delivery_tail"]
    assert [row["tail_seconds"] for row in rows] == [0.5, 2.5, 5.0]
    savings = [row["burst_saving"] for row in rows]
    assert savings == sorted(savings, reverse=True), (
        "burst saving must shrink as the tail timer eats the idle gaps")
    assert all(s > 0 for s in savings), "bursting must always win"

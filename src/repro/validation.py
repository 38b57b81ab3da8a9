"""Paper fidelity: one run plan, the figure ledger and one claim table.

:func:`paper_ledger` first plans every ``simulate`` run it reads as a
:class:`RunKey` -- every Table 1 video under the Fig. 11 schemes, plus
the variant runs the single-figure and extension studies need -- then
plays each distinct key once and computes every paper figure from the
finished results: per-video rows, mix means, cuts and ratios.  It also
plays the paper's extension studies (Sec. 3.3, 4.4, 6.4 and 7) and the
BurstLink delivery studies.  :func:`render` turns that data into
``EXPERIMENTS.md``.  ``tools/make_experiments.py`` writes the ledger to
``EXPERIMENTS.json`` and renders the markdown from that file.

:data:`CLAIMS` is the one home of the paper's numbers: each row names a
ledger key path, the paper's value, where the paper states it, a bound,
and the run sets (:data:`RUN_SETS`) the bound holds on.
``tests/test_paper_ledger.py`` checks every row on the committed
``EXPERIMENTS.json`` and on a tiny ledger; ``repro validate``
(:func:`validate_against_paper`) computes the ledger of its own five
videos and checks the same rows, in about 11 s at the default 96 frames
(2-vCPU host); :func:`render` prints each row's paper value and verdict.
The simulator's system claims (faults, thermal, checkpoints, the fleet,
realtime) are tier-1 tests, listed in :data:`SYSTEM_CLAIMS`.
"""

from __future__ import annotations

import io
import operator
from dataclasses import asdict, dataclass, replace
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from .analysis import (
    Region, content_census, format_table, region_mix, stacked_time_cdf,
)
from .config import (
    BASELINE,
    DCC_ONLY,
    FIG11_SCHEMES,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    MachConfig,
    RadioConfig,
    SchemeConfig,
    SimulationConfig,
    VideoConfig,
)
from .core.gradient import to_gradient
from .core.mach import MachStats
from .core.pipeline import simulate
from .core.pipelines import RecordingPipeline, RenderPipeline
from .core.readpath import ReadStats
from .core.related_work import simulate_slack_dvfs
from .core.results import RunResult
from .core.writeback import WritebackEngine
from .decoder import vd_cache_study
from .decoder.power import PowerState
from .hashing.digest import CollisionTracker, get_scheme
from .network import (
    AbrPolicy,
    DeliveryResult,
    lte_trace,
    make_abr,
    segment_video,
    simulate_delivery,
)
from .units import MBPS, mbps, to_mj
from .video import (
    PAPER_WORKLOADS,
    SyntheticVideo,
    join_blocks,
    split_blocks,
    workload,
    workload_keys,
)
from .video.frame import DecodedFrame

#: The seed of every ledger run; every claim bound was set at it.
_SEED = 7

#: The run sets claim rows are defined on: (frames, videos) of the
#: ledger, ``None`` meaning all of Table 1.  ``committed`` is
#: ``EXPERIMENTS.json``; ``validate`` is what ``repro validate`` plays.
RUN_SETS: Dict[str, Tuple[int, Optional[Tuple[str, ...]]]] = {
    "committed": (120, None),
    "tiny": (8, ("V1", "V8")),
    "validate": (96, ("V1", "V3", "V8", "V9", "V14")),
}

#: The baseline mix of Fig. 1a's breakdown.
_FIG1A_MIX = ("V1", "V4", "V8", "V12")

#: The mix of the Fig. 9a capacity oracle and the Sec. 6.2 DCC study.
_VARIANT_MIX = ("V1", "V8", "V12", "V14")

_CDF_PARTS = ("execution", "short_slack", "transition", "s1", "s3")

#: The Fig. 7a cache capacities EXPERIMENTS.md shows (of the five run).
_FIG7A_RENDERED = (2048, 8192, 32768)

#: The swept values of the single-video studies.
_FIG6_BATCHES = (1, 2, 4, 8, 16)
_FIG10C_CACHE_BYTES = (2048, 4096, 8192, 16384, 65536)
_FIG12A_MACHS = (2, 4, 8, 16)
_FIG12B_ENTRIES = (64, 256, 1024, 2048, 8192)
_SEC33_PREROLLS = (4, 16, 120)

#: One minute of 60 fps V8 per delivery: long enough for the radio's
#: tail energy to dominate.
_DELIVERY_FRAMES = 3600

#: The trace seeds of the burst-vs-steady delivery rows.
_BURST_TRACE_SEEDS = (0, _SEED, 11)

JsonDict = Dict[str, Any]


# --- the run plan -----------------------------------------------------------


@dataclass(frozen=True)
class RunKey:
    """Every input of one ``simulate`` run at the ledger's seed: equal
    keys give equal results, so a plan plays each distinct key once."""

    video: str
    scheme: SchemeConfig
    frames: int
    config: SimulationConfig = SimulationConfig()
    unbounded_mach: bool = False
    use_display_cache: bool = True
    use_mach_buffer: bool = True

    def play(self) -> RunResult:
        return simulate(workload(self.video), self.scheme,
                        n_frames=self.frames, seed=_SEED, config=self.config,
                        unbounded_mach=self.unbounded_mach,
                        use_display_cache=self.use_display_cache,
                        use_mach_buffer=self.use_mach_buffer)


def _with(config: SimulationConfig, part: str,
          **changes: Any) -> SimulationConfig:
    """``config`` with fields of its ``part`` sub-config changed."""
    return replace(config, **{part: replace(getattr(config, part),
                                            **changes)})


def _batch_scheme(batch: int, racing: bool) -> SchemeConfig:
    """A Fig. 6 sweep point; where a Fig. 11 scheme differs from it
    only in name, that scheme, so the two share one run."""
    scheme = SchemeConfig(name=f"b{batch}", batch_size=batch, racing=racing)
    return next((named for named in FIG11_SCHEMES
                 if replace(named, name=scheme.name) == scheme), scheme)


def _union(*groups: Iterable[str]) -> List[str]:
    return list(dict.fromkeys(video for group in groups for video in group))


def _run_plan(frames: int, videos: Sequence[str]) -> JsonDict:
    """Every ``simulate`` run the ledger reads, as run keys by figure."""
    cfg = SimulationConfig()
    short = min(frames, 96)  # the Sec. 3.3/4.4/7 extension studies

    def run(video: str, scheme: SchemeConfig, n: int = frames,
            config: SimulationConfig = cfg, **switches: bool) -> RunKey:
        return RunKey(video, scheme, n, config, **switches)

    return {
        "matrix": {video: {scheme.name: run(video, scheme)
                           for scheme in FIG11_SCHEMES}
                   for video in _union(videos, ["V8"])},
        "fig01a": [run(video, BASELINE) for video in _FIG1A_MIX],
        "fig06": {label: [run("V8", _batch_scheme(batch, racing))
                          for batch in _FIG6_BATCHES]
                  for label, racing in (("low_freq", False),
                                        ("high_freq", True))},
        "fig09_gab": {video: run(video, GAB) for video in _VARIANT_MIX},
        "fig09_optimal": {video: run(video, GAB, unbounded_mach=True)
                          for video in _union(_VARIANT_MIX, videos)},
        "fig10_naive": {video: run(video, GAB, use_display_cache=False,
                                   use_mach_buffer=False)
                        for video in _union(["V8"], videos)},
        "fig10c": [run("V8", GAB, config=_with(cfg, "display",
                                               display_cache_bytes=size))
                   for size in _FIG10C_CACHE_BYTES],
        "sec62": {video: {scheme.name: run(video, scheme)
                          for scheme in (BASELINE, DCC_ONLY, GAB_DCC)}
                  for video in _union(_VARIANT_MIX, videos)},
        "fig12a": [run("V8", GAB, config=_with(cfg, "mach", num_machs=count))
                   for count in _FIG12A_MACHS],
        "fig12b": [run("V8", GAB, config=_with(cfg, "mach",
                                               buffer_entries=count))
                   for count in _FIG12B_ENTRIES],
        # A thin streaming buffer underruns every scheme; Race-to-Sleep
        # adapts its batches to whatever is buffered.
        "sec33": [{scheme.name: run("V8", scheme, short, _with(
                       cfg, "network", preroll_frames=depth,
                       chunk_interval=0.45))
                   for scheme in (BASELINE, RACE_TO_SLEEP)}
                  for depth in _SEC33_PREROLLS],
        "sec44": {"coalesced": run("V8", GAB, short),
                  "uncoalesced": run("V8", GAB, short, _with(
                      cfg, "mach", coalescing=False))},
        "sec7": {video: {scheme.name: run(video, scheme, short)
                         for scheme in (BASELINE, RACE_TO_SLEEP)}
                 for video in ("V1", "V6", "V8")},
    }


def _leaves(tree: Any) -> Iterator[RunKey]:
    if isinstance(tree, RunKey):
        yield tree
        return
    for item in tree.values() if isinstance(tree, dict) else tree:
        yield from _leaves(item)


def _replace_leaves(tree: Any, value: Callable[[RunKey], Any]) -> Any:
    if isinstance(tree, RunKey):
        return value(tree)
    if isinstance(tree, dict):
        return {key: _replace_leaves(item, value)
                for key, item in tree.items()}
    return [_replace_leaves(item, value) for item in tree]


def _play(plan: JsonDict, report: Callable[[str], None]) -> JsonDict:
    """The plan with each key replaced by its result; every distinct key
    plays once."""
    keys = list(dict.fromkeys(_leaves(plan)))
    report(f"playing {len(keys)} planned runs")
    played = {key: key.play() for key in keys}
    return _replace_leaves(plan, played.__getitem__)


# --- figures from finished runs ---------------------------------------------


def _reads(run: RunResult) -> ReadStats:
    """The display read counters of a display-caching run."""
    assert run.read_stats is not None, run.scheme_name
    return run.read_stats


def _mean(values: Iterable[float]) -> float:
    return float(np.mean(list(values)))


def _mean_rows(rows: Sequence[Any]) -> Any:
    """Element-wise mean of equally shaped (nested) per-video rows."""
    if isinstance(rows[0], dict):
        return {key: _mean_rows([row[key] for row in rows])
                for key in rows[0]}
    return _mean(rows)


def _video_row(cfg: SimulationConfig, video: str, runs: Dict[str, RunResult],
               census_frames: int) -> JsonDict:
    """One video's Fig. 2b/4/5/7b/9a/10/11 quantities from its Fig. 11
    runs."""
    base, batch = runs["Baseline"], runs["Batching"]
    racing, rts = runs["Racing"], runs["Race-to-Sleep"]
    mab, gab = runs["MAB"], runs["GAB"]
    mix = region_mix(base.timeline.decode_time, cfg.video.frame_interval,
                     cfg.decoder.power_states)
    census = content_census(SyntheticVideo(
        cfg.video, workload(video), seed=_SEED, n_frames=census_frames))
    return {
        "drop_rate": base.drop_rate,
        "regions": {region.value: mix[region] for region in Region},
        "transition_energy_cut": 1 - batch.energy.transition
        / max(base.energy.transition, 1e-12),
        "vd_energy_cut": 1 - batch.energy.vd_total / base.energy.vd_total,
        "baseline_s3": base.residency[PowerState.S3],
        "rts_s3": rts.residency[PowerState.S3],
        "capacity_ratio": rts.peak_footprint_native_mb
        / max(base.peak_footprint_native_mb, 1e-9),
        "act_pre_cut": 1 - racing.activations / base.activations,
        "row_hit_rate": {"Baseline": base.mem_stats.row_hit_rate,
                         "Racing": racing.mem_stats.row_hit_rate},
        "census": {"intra": census.intra_fraction,
                   "inter": census.inter_fraction,
                   "none": census.none_fraction,
                   "match": census.match_fraction},
        "write_savings": {"MAB": mab.write_savings,
                          "GAB": gab.write_savings},
        "read_savings": gab.read_savings,
        "digest_fraction": _reads(gab).digest_fraction,
        "fragmentation_rate": _reads(gab).fragmentation_rate,
        "normalized_energy": {
            name: run.energy.total / base.energy.total
            for name, run in runs.items()},
    }


def _matrix_figures(cfg: SimulationConfig,
                    matrix: Dict[str, Dict[str, RunResult]],
                    videos: Sequence[str], census_frames: int) -> JsonDict:
    """The figures of the videos x Fig. 11-schemes matrix.

    Per-video rows (``per_video``), their element-wise means
    (``mean``), the Race-to-Sleep frame drops summed over the videos,
    and the two Fig. 11 shape claims: GAB is the cheapest scheme on
    every video, and MAB costs more than Race-to-Sleep on V9 (false
    when V9 is not among ``videos``).  The census plays
    ``census_frames`` frames per video.
    """
    rows = {video: _video_row(cfg, video, matrix[video], census_frames)
            for video in videos}
    gab_best = all(
        matrix[v]["GAB"].energy.total  # repro-lint: disable=F001 exactness is the claim: GAB must literally be the min of the played totals
        == min(run.energy.total for run in matrix[v].values())
        for v in videos)
    v9 = ("V9" in videos
          and matrix["V9"]["MAB"].energy.total
          > matrix["V9"]["Race-to-Sleep"].energy.total)
    return {
        "videos": list(videos),
        "per_video": rows,
        "mean": _mean_rows(list(rows.values())),
        "rts_drops": sum(int(matrix[v]["Race-to-Sleep"].drops)
                         for v in videos),
        "gab_best_everywhere": gab_best,
        "v9_mab_regression": v9,
    }


def _engine_stats(video_cfg: VideoConfig, mach_cfg: MachConfig,
                  scheme: SchemeConfig, video: str, frames: int) -> MachStats:
    """MACH statistics of the write path alone over one stream."""
    engine = WritebackEngine(video_cfg, mach_cfg, scheme)
    for frame in SyntheticVideo(video_cfg, workload(video), seed=_SEED,
                                n_frames=frames):
        engine.process_frame(frame, frame.index << 20)
    stats = engine.stats
    assert stats is not None, "content-caching schemes keep MACH stats"
    return stats


def _mab_size_sweep(mach: MachConfig, frames: int) -> List[JsonDict]:
    """Fig. 12c: the MACH block size swept against the *same* pixel
    stream of V14, since content similarity lives at a fixed spatial
    scale: tiny blocks drown in per-block metadata, huge blocks rarely
    match exactly."""
    base_video = VideoConfig(width=192, height=120, block_size=4)
    stream = list(SyntheticVideo(base_video, workload("V14"), seed=_SEED,
                                 n_frames=frames))
    rows: List[JsonDict] = []
    for block in (2, 4, 8):
        video = VideoConfig(width=192, height=120, block_size=block)
        engine = WritebackEngine(video, mach.scaled_for(video), GAB)
        written = raw = 0
        for frame in stream:
            image = join_blocks(frame.blocks, base_video.width,
                                base_video.height, 4)
            reblocked = DecodedFrame(
                index=frame.index, frame_type=frame.frame_type,
                blocks=split_blocks(image, block),
                complexity=frame.complexity,
                encoded_bits=frame.encoded_bits)
            result = engine.process_frame(reblocked, frame.index << 20)
            written += result.bytes_written
            raw += result.layout.raw_bytes
        rows.append({"mab_size": f"{block}x{block}",
                     "write_savings": 1.0 - written / raw})
    return rows


def _hash_comparison(video_cfg: VideoConfig, frames: int) -> JsonDict:
    """Fig. 12d: digest collisions over V14's gradient blocks."""
    stream = list(SyntheticVideo(video_cfg, workload("V14"), seed=_SEED,
                                 n_frames=frames))
    table: JsonDict = {}
    for name in ("crc32", "md5", "sha1", "weak-sum"):
        scheme = get_scheme(name)
        tracker = CollisionTracker()
        for frame in stream:
            gabs, _ = to_gradient(frame.blocks)
            tracker.observe_frame(scheme.digest_blocks(gabs), gabs)
        table[name] = {"collisions": tracker.collisions,
                       "blocks": tracker.lookups,
                       "rate": tracker.collision_rate}
    return table


def _extension_studies(cfg: SimulationConfig, runs: JsonDict,
                       frames: int) -> JsonDict:
    """Sec. 3.3, 4.4, 6.4 and 7 over ``frames`` frames per run; Sec.
    6.4's pipelines play at most 48 frames per video."""
    preroll: List[JsonDict] = []
    for depth, pair in zip(_SEC33_PREROLLS, runs["sec33"]):
        base, rts = pair["Baseline"], pair["Race-to-Sleep"]
        preroll.append({
            "preroll_frames": depth,
            "rts_normalized_energy": rts.energy.total / base.energy.total,
            "baseline_drops": base.drops,
            "rts_drops": rts.drops})
    coalesced = runs["sec44"]["coalesced"]
    uncoalesced = runs["sec44"]["uncoalesced"]
    pipeline_frames = min(frames, 48)
    pipelines: JsonDict = {}
    for video in ("V1", "V8", "V12"):
        clip = list(SyntheticVideo(cfg.video, workload(video), seed=_SEED,
                                   n_frames=pipeline_frames))
        pipelines[video] = {
            "recording_savings":
                RecordingPipeline(cfg).run(iter(clip)).total_savings,
            "render_savings":
                RenderPipeline(cfg).run(iter(clip)).total_savings}
    dvfs: JsonDict = {}
    for video, pair in runs["sec7"].items():
        slack = simulate_slack_dvfs(workload(video), frames, seed=_SEED)
        base_vd = pair["Baseline"].energy.vd_total
        rts = pair["Race-to-Sleep"]
        dvfs[video] = {"dvfs_vd_energy": slack.vd_energy / base_vd,
                       "dvfs_drops": slack.drops,
                       "rts_vd_energy": rts.energy.vd_total / base_vd,
                       "rts_drops": rts.drops}
    return {
        "sec33_preroll": {"frames": frames, "rows": preroll},
        "sec44_coalescing": {
            "frames": frames,
            "coalesced": {"energy": coalesced.energy.total,
                          "write_savings": coalesced.write_savings},
            "uncoalesced": {"energy": uncoalesced.energy.total,
                            "write_savings": uncoalesced.write_savings}},
        "sec64_pipelines": {"frames": pipeline_frames,
                            "per_video": pipelines},
        "sec7_slack_dvfs": {"frames": frames, "per_video": dvfs},
    }


def _deliver_v8(mode: str, abr: AbrPolicy, trace_seed: int,
                radio: Optional[RadioConfig] = None) -> DeliveryResult:
    """V8 over an LTE-like 24 Mbit/s trace, delivered ``mode``."""
    segments = segment_video(workload("V8"), VideoConfig(),
                             n_frames=_DELIVERY_FRAMES, seed=trace_seed)
    trace = lte_trace(mbps(24), duration=120, seed=trace_seed)
    return simulate_delivery(segments, trace, abr, radio or RadioConfig(),
                             download_mode=mode)


def _burst_vs_steady(trace_seed: int) -> JsonDict:
    """Steady and burst delivery of one trace at rung 2."""
    abr = make_abr("fixed", rung=2)
    steady = _deliver_v8("steady", abr, trace_seed)
    burst = _deliver_v8("burst", abr, trace_seed)
    return {"trace_seed": trace_seed,
            "steady_stalls": steady.stall_events,
            "burst_stalls": burst.stall_events,
            "steady_radio": steady.radio.total,
            "burst_radio": burst.radio.total}


def _delivery_studies() -> JsonDict:
    """BurstLink's delivery claims (PAPERS.md): V8 over an LTE-like
    24 Mbit/s trace, bursting the buffer full and parking the modem
    versus dripping one segment per segment duration."""
    video_cfg = VideoConfig()
    burst_rows = [_burst_vs_steady(trace_seed)
                  for trace_seed in _BURST_TRACE_SEEDS]
    policies: JsonDict = {}
    for name, abr in (("fixed-0", make_abr("fixed", rung=0)),
                      ("fixed-top", make_abr("fixed", rung=99)),
                      ("rate", make_abr("rate")),
                      ("bba", make_abr("bba"))):
        result = _deliver_v8("burst", abr, _SEED)
        delivered = sum(chunk.size_bytes for chunk in result.chunks)
        policies[name] = {
            "delivered_mbps":
                delivered / result.n_frames * video_cfg.fps / MBPS,
            "stall_seconds": result.stall_seconds,
            "switches": result.switches,
            "radio": result.radio.total}
    tail_rows: List[JsonDict] = []
    abr = make_abr("fixed", rung=2)
    for tail in (0.5, 2.5, 5.0):
        radio = RadioConfig(tail_seconds=tail)
        steady = _deliver_v8("steady", abr, _SEED, radio=radio)
        burst = _deliver_v8("burst", abr, _SEED, radio=radio)
        tail_rows.append({
            "tail_seconds": tail,
            "steady_radio": steady.radio.total,
            "steady_promotions": steady.radio.promotions,
            "burst_radio": burst.radio.total,
            "burst_saving": 1.0 - burst.radio.total / steady.radio.total})
    return {"delivery_burst": burst_rows, "delivery_abr": policies,
            "delivery_tail": tail_rows}


def paper_ledger(
    frames: int = 120,
    videos: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> JsonDict:
    """Every paper figure, computed once from one run plan at seed 7.

    ``videos`` (default: all of Table 1) are played under the Fig. 11
    schemes, the Fig. 9a capacity oracle, the Fig. 10e naive display
    layout and the Sec. 6.2 DCC pair; the single-figure studies run
    their own fixed videos, and the extension studies play at most 96
    frames.  The result is plain JSON data:
    ``EXPERIMENTS.json`` is this function's output at the defaults,
    plus the host fingerprint the writing tool adds.
    """
    cfg = SimulationConfig()
    video_cfg = cfg.video
    videos = list(videos or workload_keys())

    def report(name: str) -> None:
        if progress is not None:
            progress(name)

    runs = _play(_run_plan(frames, videos), report)
    report("computing the figures")
    ledger: JsonDict = {"frames": frames, "seed": _SEED}
    ledger.update(_matrix_figures(cfg, runs["matrix"], videos,
                                  census_frames=min(frames, 96)))

    fig1 = runs["fig01a"]
    ledger["fig01a"] = {
        "videos": list(_FIG1A_MIX),
        "vd_energy_share": _mean(r.energy.vd_total / r.energy.total
                                 for r in fig1),
        "memory_energy_share": _mean(r.energy.memory_total / r.energy.total
                                     for r in fig1),
        "display_energy_share": _mean(r.energy.dc / r.energy.total
                                      for r in fig1),
        "vd_time_share": _mean(r.timeline.decode_time.mean()
                               / video_cfg.frame_interval for r in fig1),
    }
    v8 = runs["matrix"]["V8"]
    base8, racing8, rts8 = v8["Baseline"], v8["Racing"], v8["Race-to-Sleep"]
    stacked = {name: stacked_time_cdf(v8[name].timeline)
               for name in ("Baseline", "Batching")}
    ledger["fig02"] = {"v8_stacked_time": {
        name: {part: cdf.mean_fraction(part) for part in _CDF_PARTS}
        for name, cdf in stacked.items()}}
    timeline = base8.timeline
    sleeping = timeline.transition_time > 0
    ledger["sec22"] = {
        "v8_transition_time_share": float(
            timeline.transition_time[sleeping].sum()
            / timeline.total_time[sleeping].sum()),
        "v8_transition_energy_share": float(
            timeline.transition_energy[sleeping].sum()
            / timeline.total_energy[sleeping].sum()),
    }
    rts_energy = rts8.energy
    ledger["fig04"] = {
        "v8_transition_energy": {name: v8[name].energy.transition
                                 for name in ("Baseline", "Racing",
                                              "Race-to-Sleep")},
        "v8_s3": {name: v8[name].residency[PowerState.S3]
                  for name in ("Racing", "Race-to-Sleep")},
        "v8_rts_memory_share": rts_energy.memory_total / rts_energy.total,
        "v8_rts_act_pre_share": rts_energy.mem_act_pre / rts_energy.total,
        "v8_rts_burst_share": rts_energy.mem_burst / rts_energy.total,
    }
    ledger["fig05"] = {
        "v8_extra_vd_mj_per_frame": to_mj(
            (racing8.energy.vd_processing - base8.energy.vd_processing)
            / frames),
        "v8_act_pre_saved_mj_per_frame": to_mj(
            (base8.energy.mem_act_pre - racing8.energy.mem_act_pre)
            / frames),
    }
    ledger["fig06"] = {"batch_sizes": list(_FIG6_BATCHES)}
    for label, sweep in runs["fig06"].items():
        ledger["fig06"][label] = [run.energy.total / base8.energy.total
                                  for run in sweep]

    ledger["fig07a"] = [asdict(result) for result in vd_cache_study(
        video_cfg, [2048, 4096, 8192, 16384, 32768], frames=3)]
    ledger["table1"] = {
        profile.key: {"name": profile.name,
                      "description": profile.description,
                      "n_frames": profile.n_frames}
        for profile in PAPER_WORKLOADS}

    optimal = {video: run.write_savings
               for video, run in runs["fig09_optimal"].items()}
    ledger["fig09"] = {
        "videos": list(_VARIANT_MIX),
        "gab_write_savings": _mean(run.write_savings
                                   for run in runs["fig09_gab"].values()),
        "optimal_write_savings": _mean(optimal[video]
                                       for video in _VARIANT_MIX),
        "per_video_optimal_write_savings": {
            video: optimal[video] for video in videos},
        "mean_optimal_write_savings": _mean(optimal[video]
                                            for video in videos),
        "v8_top_digest_share": {},
    }
    for scheme in (MAB, GAB):
        stats = _engine_stats(
            video_cfg, cfg.with_scheme_mach(scheme).scaled_for(video_cfg),
            scheme, "V8", min(frames, 64))
        ledger["fig09"]["v8_top_digest_share"][scheme.name] = {
            "top1": stats.top_match_share(1),
            "top8": stats.top_match_share(8)}

    def naive_extra_reads(video: str) -> float:
        """Extra reads of the pointer layout without display caching."""
        reads = _reads(runs["fig10_naive"][video])
        return reads.mem_reads / reads.raw_equivalent_lines - 1

    ledger["fig10"] = {
        "v8_naive_extra_reads": naive_extra_reads("V8"),
        "per_video_naive_extra_reads": {
            video: naive_extra_reads(video) for video in videos},
        "mean_naive_extra_reads": _mean(map(naive_extra_reads, videos)),
        "v8_cache_size_sweep": [
            {"display_cache_bytes": size,
             "read_savings": sized.read_savings,
             "dc_hits": int(_reads(sized).dc_hits)}
            for size, sized in zip(_FIG10C_CACHE_BYTES, runs["fig10c"])],
    }

    ledger["fig11"] = {"v8_stacks": {
        name: run.energy.normalized_to(base8.energy)
        for name, run in v8.items()}}

    def dcc_extra(video: str) -> float:
        """GAB+DCC's write savings over plain DCC's."""
        trio = runs["sec62"][video]
        base_bytes = trio["Baseline"].write_bytes
        dcc, combo = trio["DCC"].write_bytes, trio["GAB+DCC"].write_bytes
        return (1 - combo / base_bytes) - (1 - dcc / base_bytes)

    ledger["sec62"] = {
        "videos": list(_VARIANT_MIX),
        "extra_write_savings": _mean(map(dcc_extra, _VARIANT_MIX)),
        "per_video_extra_write_savings": {
            video: dcc_extra(video) for video in videos},
        "mean_extra_write_savings": _mean(map(dcc_extra, videos)),
    }

    ledger["fig12a"] = [
        {"num_machs": count,
         "peak_footprint_mb": run.peak_footprint_native_mb,
         "write_savings": run.write_savings}
        for count, run in zip(_FIG12A_MACHS, runs["fig12a"])]
    ledger["fig12b"] = []
    for count, run in zip(_FIG12B_ENTRIES, runs["fig12b"]):
        reads = _reads(run)
        ledger["fig12b"].append({
            "buffer_entries": count,
            "hit_rate": reads.mb_hits / max(reads.mb_hits + reads.mb_misses, 1),
            "read_savings": run.read_savings})
    ledger["fig12c"] = _mab_size_sweep(cfg.mach, min(frames, 32))
    ledger["fig12d"] = _hash_comparison(video_cfg, min(frames, 24))
    ledger["sec63"] = {}
    for label, co_mach in (("crc32", False), ("co_mach_crc48", True)):
        stats = _engine_stats(
            video_cfg, replace(cfg.mach, co_mach=co_mach).scaled_for(
                video_cfg), GAB, "V8", min(frames, 24))
        ledger["sec63"][label] = {"silent": stats.silent_collisions,
                                  "detected": stats.detected_collisions}

    dram, decoder, display, mach = (cfg.dram, cfg.decoder, cfg.display,
                                    cfg.mach)
    ledger["table2"] = {
        "dram_channels": dram.channels,
        "dram_banks_per_rank": dram.banks_per_rank,
        "vd_low_freq_power": decoder.low_freq_power,
        "vd_high_freq_power": decoder.high_freq_power,
        "num_machs": mach.num_machs,
        "entries_per_mach": mach.entries_per_mach,
        "mach_total_entries": mach.total_entries,
        "display_cache_bytes": display.display_cache_bytes,
        "display_power": display.power,
    }

    report("computing the extension studies")
    ledger.update(_extension_studies(cfg, runs, min(frames, 96)))
    report("playing the delivery studies")
    ledger.update(_delivery_studies())
    return ledger


# --- the claim table --------------------------------------------------------

#: Comparison operators of claim bounds.
_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}

#: Binary operators a claim path may join two key paths with.
_PATH_OPS = ((" + ", operator.add), (" - ", operator.sub),
             (" / ", operator.truediv))

_ALL = frozenset(RUN_SETS)
_NOT_TINY = frozenset({"committed", "validate"})

Bound = Tuple[Tuple[str, float], ...]


def measure(ledger: JsonDict, path: str) -> Any:
    """The value at a dotted ledger key path (list items by index), or
    two such values joined by `` + ``, `` - `` or `` / ``."""
    for text, op in _PATH_OPS:
        if text in path:
            left, right = path.split(text)
            return op(measure(ledger, left), measure(ledger, right))
    value: Any = ledger
    for part in path.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


@dataclass(frozen=True)
class Claim:
    """One paper number: where the paper states it (``cite``), its
    ledger key path, the paper's value, the bound the measured value
    must meet (empty: reported, not checked) and the run sets
    (:data:`RUN_SETS`) the bound is defined on."""

    cite: str
    label: str
    path: str
    paper: Union[float, str]
    bound: Bound = ()
    on: FrozenSet[str] = _ALL

    def holds(self, ledger: JsonDict) -> bool:
        value = measure(ledger, self.path)
        return all(_OPS[op](value, limit) for op, limit in self.bound)

    def verdict(self, ledger: JsonDict) -> str:
        if not self.bound:
            return "-"
        return "PASS" if self.holds(ledger) else "FAIL"

    @property
    def bound_text(self) -> str:
        return ", ".join(f"{op} {limit:g}" for op, limit in self.bound)


def _between(low: float, high: float) -> Bound:
    return ((">", low), ("<", high))


def _burst_claims() -> Iterator[Claim]:
    """BurstLink's claim on every delivery_burst row: burst downloads
    cost less radio energy than steady ones at equal stalls."""
    for index, trace_seed in enumerate(_BURST_TRACE_SEEDS):
        row = f"delivery_burst.{index}"
        yield Claim("BurstLink (PAPERS.md)",
                    f"burst/steady radio energy, trace seed {trace_seed}",
                    f"{row}.burst_radio / {row}.steady_radio", "<1.0",
                    (("<", 1.0),))
        yield Claim("BurstLink (PAPERS.md)",
                    f"burst minus steady stalls, trace seed {trace_seed}",
                    f"{row}.burst_stalls - {row}.steady_stalls", 0,
                    (("==", 0),))


#: Every paper number the ledger measures, in ``EXPERIMENTS.md`` order.
CLAIMS: Tuple[Claim, ...] = (
    Claim("Fig. 1a", "VD pipeline share of baseline energy",
          "fig01a.vd_energy_share", 0.297),
    Claim("Fig. 1a", "memory share of baseline energy",
          "fig01a.memory_energy_share", 0.458),
    Claim("Fig. 1a", "display share of baseline energy",
          "fig01a.display_energy_share", "n/a"),
    Claim("Fig. 1a", "VD pipeline share of frame time",
          "fig01a.vd_time_share", 0.499),
    Claim("Fig. 2b", "region I share", "mean.regions.I", 0.04,
          _between(0.01, 0.10), _NOT_TINY),
    Claim("Fig. 2b", "region II share", "mean.regions.II", 0.12),
    Claim("Fig. 2b", "region III share", "mean.regions.III", 0.37),
    Claim("Fig. 2b", "region IV share", "mean.regions.IV", 0.40),
    Claim("Fig. 2b", "sleep-capable (III+IV) share",
          "mean.regions.III + mean.regions.IV", 0.77, ((">=", 0.65),)),
    Claim("Fig. 2b", "baseline frame-drop rate", "mean.drop_rate", 0.04,
          _between(0.005, 0.10), _NOT_TINY),
    Claim("Fig. 4", "batching transition-energy cut",
          "mean.transition_energy_cut", 0.86, ((">", 0.75),)),
    Claim("Sec. 3.3", "baseline S3 residency", "mean.baseline_s3", 0.05),
    Claim("Sec. 3.3", "Race-to-Sleep S3 residency", "mean.rts_s3", 0.60,
          _between(0.5, 0.75)),
    Claim("Sec. 3.3", "Race-to-Sleep frame drops (all videos)", "rts_drops",
          0, (("==", 0),)),
    Claim("Sec. 3.3", "memory capacity ratio (RtS/baseline)",
          "mean.capacity_ratio", 5.3, ((">", 3.0),)),
    Claim("Sec. 3.3", "memory share of RtS energy (V8)",
          "fig04.v8_rts_memory_share", 0.642),
    Claim("Sec. 3.3", "Act/Pre share of RtS energy (V8)",
          "fig04.v8_rts_act_pre_share", 0.46),
    Claim("Sec. 3.3", "burst share of RtS energy (V8)",
          "fig04.v8_rts_burst_share", 0.127),
    Claim("Fig. 5", "racing Act/Pre count cut", "mean.act_pre_cut", "~0.20",
          _between(0.05, 0.45)),
    # Within 10x of the paper's mJ/frame, so that a dropped or doubled
    # unit conversion (1000x) cannot pass.
    Claim("Fig. 5", "extra VD energy (V8, mJ/frame)",
          "fig05.v8_extra_vd_mj_per_frame", 0.5, _between(0.05, 5.0)),
    Claim("Fig. 5", "memory Act/Pre saved (V8, mJ/frame)",
          "fig05.v8_act_pre_saved_mj_per_frame", 1.0, _between(0.1, 10.0)),
    Claim("Fig. 7b", "census: intra matches", "mean.census.intra", 0.42,
          _between(0.30, 0.55)),
    Claim("Fig. 7b", "census: inter matches", "mean.census.inter", 0.15,
          _between(0.08, 0.30)),
    Claim("Fig. 7b", "census: no match", "mean.census.none", 0.43,
          _between(0.30, 0.55)),
    Claim("Fig. 7b", "census: blocks matching (intra+inter)",
          "mean.census.match", 0.57, _between(0.45, 0.70)),
    Claim("Fig. 9a", "MAB write savings", "mean.write_savings.MAB", 0.13,
          ((">", -0.05),)),
    Claim("Fig. 9a", "GAB write savings", "mean.write_savings.GAB", 0.34,
          _between(0.2, 0.5)),
    Claim("Fig. 9a", "GAB write savings over MAB's",
          "mean.write_savings.GAB - mean.write_savings.MAB", 0.21,
          ((">", 0.1),), _NOT_TINY),
    Claim("Fig. 9a", "optimal-GAB write savings (4-video avg)",
          "fig09.optimal_write_savings", "~0.41"),
    Claim("Fig. 10", "DC read savings", "mean.read_savings", 0.335,
          _between(0.2, 0.5)),
    Claim("Fig. 10", "digest-indexed record share", "mean.digest_fraction",
          0.38, _between(0.25, 0.55)),
    Claim("Fig. 10", "fragmenting pointer fetches",
          "mean.fragmentation_rate", ">0.45", ((">", 0.45),)),
    Claim("Fig. 10", "extra reads, naive layout (V8)",
          "fig10.v8_naive_extra_reads", ">0.60", ((">", 0.3),)),
    Claim("Fig. 11", "Baseline energy (normalized)",
          "mean.normalized_energy.Baseline", 1.0),
    Claim("Fig. 11", "Batching energy (normalized)",
          "mean.normalized_energy.Batching", 0.93, (("<", 1.0),)),
    Claim("Fig. 11", "Racing-alone energy (normalized)",
          "mean.normalized_energy.Racing", 1.12, ((">", 1.0),)),
    Claim("Fig. 11", "Race-to-Sleep energy (normalized)",
          "mean.normalized_energy.Race-to-Sleep", 0.887,
          _between(0.85, 0.97)),
    Claim("Fig. 11", "MAB energy (normalized)", "mean.normalized_energy.MAB",
          0.875, _between(0.80, 0.95)),
    Claim("Fig. 11", "GAB energy (normalized)", "mean.normalized_energy.GAB",
          0.79, _between(0.75, 0.88)),
    Claim("Fig. 11", "GAB best on every video", "gab_best_everywhere", "yes",
          (("==", True),)),
    Claim("Fig. 11", "V9 MAB regression (MAB worse than RtS)",
          "v9_mab_regression", "yes", (("==", True),), _NOT_TINY),
    Claim("Sec. 6.2", "extra write savings of GAB+DCC over DCC (4-video avg)",
          "sec62.extra_write_savings", 0.18, ((">", 0.08),)),
    *_burst_claims(),
)

_CLAIM_AT = {claim.path: claim for claim in CLAIMS}

#: The simulator's system claims and the tier-1 tests that assert them.
SYSTEM_CLAIMS: Tuple[Tuple[str, str], ...] = (
    ("faulted run: bounded concealment, zero wrong MACH blocks",
     "tests/test_faults.py::TestPipelineFaults::"
     "test_fault_drill_conceals_a_bounded_fraction"),
    ("lossy delivery pays for its retries (radio active energy)",
     "tests/test_faults.py::TestDeliveryResilience::"
     "test_retries_cost_radio_energy"),
    ("throttled run: adaptive ladder drops below fixed RtS",
     "tests/test_thermal.py::TestPipelineUnderPressure::"
     "test_adaptive_drops_below_fixed_under_throttle"),
    ("thermal severity: energy monotone in revoked-boost duty",
     "tests/test_thermal.py::TestPipelineUnderPressure::"
     "test_severity_prices_monotonically"),
    ("checkpoint-resumed matrix bit-identical to uninterrupted",
     "tests/test_runner.py::TestCheckpointing::test_resume_is_bit_identical"),
    ("fleet online aggregates match exact run_matrix energies",
     "tests/test_fleet.py::TestExactAgreement::"
     "test_title_energies_match_run_matrix"),
    ("cell-contention fleet dominates private-trace fleet",
     "tests/test_fleet.py::TestExactAgreement::"
     "test_contention_dominates_private_links"),
    ("supervised fleet under injected crashes matches serial run",
     "tests/test_shard.py::TestSupervisionBudgets::"
     "test_chaos_absorbed_bit_exactly"),
    ("speculation cuts p99 stripe time without changing the result",
     "tests/test_shard.py::TestSupervisionBudgets::test_speculation_cuts_p99"),
    ("FEC beats retx on deadline misses at high RTT (equal overhead)",
     "tests/test_realtime.py::TestSimulateRealtime::"
     "test_fec_beats_retx_at_high_rtt"),
    ("deadline ladder strictly cuts p99 lateness under cliffs",
     "tests/test_realtime.py::TestSimulateRealtime::"
     "test_ladder_cuts_p99_lateness_under_cliffs"),
)


def render(ledger: Dict[str, Any]) -> str:
    """EXPERIMENTS.md from a loaded EXPERIMENTS.json."""
    out = io.StringIO()

    def w(text: str = "") -> None:
        out.write(text + "\n")

    def paper(path: str) -> Union[float, str]:
        return _CLAIM_AT[path].paper

    def claimed(label: str, path: str) -> List[Any]:
        """A table row: the measured value, the paper's, the verdict."""
        claim = _CLAIM_AT[path]
        return [label, measure(ledger, path), claim.paper,
                claim.verdict(ledger)]

    def claim_table(header: str, *rows: Tuple[str, str],
                    title: str = "") -> str:
        return format_table([header, "measured", "paper", "check"],
                            [claimed(label, path) for label, path in rows],
                            title=title)

    frames, mean = ledger["frames"], ledger["mean"]
    w("# EXPERIMENTS — paper vs measured")
    w()
    w("Rendered from `EXPERIMENTS.json` by "
      f"`python tools/make_experiments.py --frames {frames}`.")
    w()
    w("All runs use the default `SimulationConfig` (DESIGN.md section 5 "
      f"calibration), seed {ledger['seed']}, "
      f"{frames} frames per video. Absolute energies are per-frame "
      "averages with dynamic memory traffic rescaled to 4K; every "
      "comparison below is *relative*, which is the reproduction "
      "target (shape, not testbed-absolute numbers).")
    w()

    fig1 = ledger["fig01a"]
    w("## Fig. 1a — baseline time/energy breakdown")
    w()
    w(claim_table(
        "component",
        ("VD pipeline (energy)", "fig01a.vd_energy_share"),
        ("memory (energy)", "fig01a.memory_energy_share"),
        ("display (energy)", "fig01a.display_energy_share"),
        ("VD pipeline (time share)", "fig01a.vd_time_share")))
    w()
    w("The decoder + memory dominate (paper: ~75 % of energy); our "
      "calibration puts more weight on Act/Pre so that the Sec. 3.3 "
      "post-RtS memory shares match (see below).")
    w()

    w("## Fig. 2b-2e — frame regions and stacked CDFs")
    w()
    w(claim_table(
        "region",
        *[(region, f"mean.regions.{region}") for region in mean["regions"]],
        ("drop rate", "mean.drop_rate")))
    stacked = ledger["fig02"]["v8_stacked_time"]
    w()
    w(format_table(
        ["series", "execution", "transition", "s1", "s3"],
        [[label] + [stacked[name][part]
                    for part in ("execution", "transition", "s1", "s3")]
         for label, name in (("baseline (V8)", "Baseline"),
                             ("batching-16 (V8)", "Batching"))],
        title="Mean per-frame stacked fractions (paper: batching cuts "
              "per-frame transition overhead ~16x)"))
    w()

    w("## Fig. 4 / Sec. 3.3 — batching, racing, Race-to-Sleep")
    w()
    w(claim_table(
        "metric",
        ("batching transition-energy cut", "mean.transition_energy_cut"),
        ("baseline S3 residency", "mean.baseline_s3"),
        ("Race-to-Sleep S3 residency", "mean.rts_s3"),
        ("Race-to-Sleep frame drops (all videos)", "rts_drops"),
        ("memory capacity ratio (RtS/baseline)", "mean.capacity_ratio"),
        ("memory share of RtS energy (V8)", "fig04.v8_rts_memory_share"),
        ("Act/Pre share of RtS energy (V8)", "fig04.v8_rts_act_pre_share"),
        ("burst share of RtS energy (V8)", "fig04.v8_rts_burst_share")))
    w()

    fig5 = ledger["fig05"]
    w("## Fig. 5 — VD frequency vs DRAM Act/Pre")
    w()
    w(claim_table(
        "metric",
        ("Act/Pre count cut from racing (avg)", "mean.act_pre_cut"),
        ("extra VD energy (V8, mJ/frame)", "fig05.v8_extra_vd_mj_per_frame"),
        ("memory Act/Pre saved (V8, mJ/frame)",
         "fig05.v8_act_pre_saved_mj_per_frame")))
    w()
    fig6 = ledger["fig06"]
    w("## Fig. 6 — batch-size sweep")
    w()
    w(format_table(["batch", "150 MHz", "300 MHz"],
                   [list(row) for row in zip(fig6["batch_sizes"],
                                             fig6["low_freq"],
                                             fig6["high_freq"])],
                   title="Normalized energy on V8 (paper: high-frequency "
                         "curve dominates, best at batch 16)"))
    w()

    w("## Fig. 7 — locality")
    w()
    w(format_table(
        ["capacity*", "compute miss", "writeback miss"],
        [[f"{row['capacity_bytes'] // 1024}KB", row["compute_miss_rate"],
          row["writeback_miss_rate"]] for row in ledger["fig07a"]
         if row["capacity_bytes"] in _FIG7A_RENDERED],
        title="Fig. 7a (capacities scaled with sim resolution): larger "
              "caches fix compute misses, never writeback"))
    w()
    w(claim_table(
        "class",
        ("intra match", "mean.census.intra"),
        ("inter match", "mean.census.inter"),
        ("no match", "mean.census.none"),
        title="Fig. 7b census (16-frame window, 16-video average)"))
    w()

    w("## Fig. 9 — MACH savings")
    w()
    w(claim_table(
        "metric",
        ("mab write savings (avg)", "mean.write_savings.MAB"),
        ("gab write savings (avg)", "mean.write_savings.GAB"),
        ("optimal-gab write savings (4-video avg)",
         "fig09.optimal_write_savings")))
    w()

    w("## Fig. 10 — display caching")
    w()
    w(claim_table(
        "metric",
        ("DC read savings (avg)", "mean.read_savings"),
        ("digest-indexed records (avg)", "mean.digest_fraction"),
        ("fragmenting pointer fetches (avg)", "mean.fragmentation_rate"),
        ("extra reads, naive layout (V8)", "fig10.v8_naive_extra_reads")))
    w()

    w("## Fig. 11 — normalized energy (the headline)")
    w()
    schemes = list(mean["normalized_energy"])
    rows11 = [[video] + list(row["normalized_energy"].values())
              for video, row in ledger["per_video"].items()]
    rows11.append(["**Avg**"] + list(mean["normalized_energy"].values()))
    averages = [_CLAIM_AT[f"mean.normalized_energy.{scheme}"]
                for scheme in schemes]
    rows11.append(["paper avg"] + [claim.paper for claim in averages])
    w(format_table(["video"] + schemes, rows11, title=""))
    w()
    w("Claim-table check of the averages: " + ", ".join(
        f"{scheme} {claim.verdict(ledger)}"
        for scheme, claim in zip(schemes, averages)) + ".")
    w()
    w("Shape checks that hold: GAB is the best scheme on **every** "
      "video; Racing alone *costs* energy; V9 shows the paper's MAB "
      "regression (MAB worse than Race-to-Sleep); V8 is among the "
      "strongest GAB videos; Race-to-Sleep eliminates all frame drops.")
    w()

    sec62 = ledger["sec62"]
    w("## Sec. 6.2 — GAB + DCC")
    w()
    w(claim_table(
        "metric",
        ("extra write savings of GAB+DCC over DCC (4-video avg)",
         "sec62.extra_write_savings")))
    w()

    w("## Fig. 12 — sensitivity")
    w()
    w(format_table(
        ["#MACHs", "peak footprint (4K MB)", "write savings"],
        [[row["num_machs"], row["peak_footprint_mb"], row["write_savings"]]
         for row in ledger["fig12a"]],
        title="Fig. 12a: retention cost vs number of MACHs on V8 "
              "(paper: 8 chosen; 16 needs ~300MB)"))
    w()
    w(format_table(
        ["entries (native)", "buffer hit rate", "DC savings"],
        [[row["buffer_entries"], row["hit_rate"], row["read_savings"]]
         for row in ledger["fig12b"]],
        title="Fig. 12b: MACH-buffer entry sweep on V8 (paper picks 2K)"))
    w()
    w(format_table(
        ["mab size", "write savings"],
        [[row["mab_size"], row["write_savings"]]
         for row in ledger["fig12c"]],
        title="Fig. 12c: mab-size sweep on V14 (paper: 4x4 optimal)"))
    w()
    w(format_table(
        ["digest", "collisions", "blocks"],
        [[name, row["collisions"], row["blocks"]]
         for name, row in ledger["fig12d"].items()],
        title="Fig. 12d: digest collisions over V14's gradient blocks"))
    w()
    w(format_table(
        ["configuration", "silent collisions", "detected"],
        [[label, row["silent"], row["detected"]]
         for label, row in (("plain CRC32", ledger["sec63"]["crc32"]),
                            ("CO-MACH + CRC48",
                             ledger["sec63"]["co_mach_crc48"]))],
        title="Sec. 6.3: CO-MACH deep hashing on V8 (paper: collisions "
              "to practically zero)"))
    w()
    w("* 12a: peak frame-buffer footprint grows monotonically with the "
      "number of MACHs (retention window); 8 MACHs is the trade-off.")
    w("* 12b: MACH-buffer hit rate saturates with entry count.")
    w("* 12c: 4x4 is the interior optimum of the mab-size sweep "
      "(2x2 drowns in metadata, 8x8 rarely matches exactly).")
    w("* 12d: CRC32/MD5/SHA1 are equivalent and near-collision-free; "
      "a weak additive checksum collides heavily; CO-MACH + CRC48 "
      "detects every residual collision (0 silent).")
    w()

    sec33 = ledger["sec33_preroll"]
    w("## Sec. 3.3 — Race-to-Sleep vs streaming-buffer depth")
    w()
    w(format_table(
        ["preroll frames", "RtS normalized energy", "baseline drops",
         "RtS drops"],
        [[row["preroll_frames"], row["rts_normalized_energy"],
          row["baseline_drops"], row["rts_drops"]] for row in sec33["rows"]],
        title=f"V8, {sec33['frames']} frames, 0.45 s delivery chunks: thin "
              "buffers cause underrun drops for every scheme; Race-to-Sleep "
              "adapts its batches and still saves energy"))
    w()

    sec44 = ledger["sec44_coalescing"]
    w("## Sec. 4.4 — coalescing ablation")
    w()
    w(format_table(
        ["write path", "energy (J)", "write savings"],
        [[label, sec44[label]["energy"], sec44[label]["write_savings"]]
         for label in ("coalesced", "uncoalesced")],
        title=f"V8/GAB, {sec44['frames']} frames: MACH without its "
              "write-combining buffers costs energy"))
    w()

    sec64 = ledger["sec64_pipelines"]
    w("## Sec. 6.4 — MACH on the recording and render pipelines")
    w()
    w(format_table(
        ["video", "recording pipeline savings", "render pipeline savings"],
        [[video, row["recording_savings"], row["render_savings"]]
         for video, row in sec64["per_video"].items()],
        title=f"{sec64['frames']} frames per video: camera->encoder and "
              "GPU->display traffic saved"))
    w()

    sec7 = ledger["sec7_slack_dvfs"]
    w("## Sec. 7 — slack-prediction DVFS vs Race-to-Sleep")
    w()
    w(format_table(
        ["video", "DVFS vd-energy (norm)", "DVFS drops",
         "RtS vd-energy (norm)", "RtS drops"],
        [[video, row["dvfs_vd_energy"], row["dvfs_drops"],
          row["rts_vd_energy"], row["rts_drops"]]
         for video, row in sec7["per_video"].items()],
        title=f"{sec7['frames']} frames per video (paper: DVFS's savings "
              "cost frame drops; Race-to-Sleep drops none)"))
    w()

    w("## Delivery — burst vs steady downloads (BurstLink, PAPERS.md)")
    w()
    def burst_check(index: int) -> str:
        prefix = f"delivery_burst.{index}."
        return "PASS" if all(claim.holds(ledger) for claim in CLAIMS
                             if claim.path.startswith(prefix)) else "FAIL"

    w(format_table(
        ["trace seed", "steady stalls", "burst stalls", "steady radio (J)",
         "burst radio (J)", "burst/steady", "check"],
        [[row["trace_seed"], row["steady_stalls"], row["burst_stalls"],
          row["steady_radio"], row["burst_radio"],
          row["burst_radio"] / row["steady_radio"], burst_check(index)]
         for index, row in enumerate(ledger["delivery_burst"])],
        title=f"V8, {_DELIVERY_FRAMES} frames over an LTE-like 24 Mbit/s "
              "trace at rung 2: burst downloads deep-sleep the modem "
              "between fills"))
    w()

    w("## Delivery — ABR policies")
    w()
    w(format_table(
        ["ABR", "delivered Mbit/s", "stall (s)", "switches", "radio (J)"],
        [[name, row["delivered_mbps"], row["stall_seconds"],
          row["switches"], row["radio"]]
         for name, row in ledger["delivery_abr"].items()],
        title="Burst downloads on the seed-7 trace"))
    w()

    w("## Delivery — tail-timer sweep")
    w()
    w(format_table(
        ["tail timer (s)", "steady radio (J)", "steady promotions",
         "burst radio (J)", "burst saving"],
        [[row["tail_seconds"], row["steady_radio"], row["steady_promotions"],
          row["burst_radio"], row["burst_saving"]]
         for row in ledger["delivery_tail"]],
        title="Seed-7 trace at rung 2: bursting wins at every tail "
              "length, most when the tail timer lets the modem reach idle"))
    w()

    w("## Known deviations from the paper")
    w()
    w("* **Racing** lands at ~1.01-1.03x vs the paper's 1.12x: our "
      "sleep governor refuses transitions that cannot pay for "
      "themselves, which caps the transition-energy blow-up the paper "
      "observes for stand-alone racing.")
    w("* **Batching** saves ~3 % vs the paper's ~7 %: our baseline "
      "already sleeps profitably between frames (the paper's baseline "
      "burns more of its slack at high power), so batching has less to "
      "reclaim.")
    w("* **GAB** averages ~0.82x vs 0.79x, with the best video at "
      "~0.77x vs 0.67x: the synthetic content's realized match rates "
      "sit at the paper's averages but cannot reach the extreme "
      "similarity of the real Skyfall trailer.")
    w("* The census splits total matches 0.35/0.22 intra/inter vs the "
      "paper's 0.42/0.15 (same 57 % total): the synthetic generator's "
      "recurring-content window is flatter than real video's.")
    w("* Metadata overheads (pointer tables, MACH dumps) are "
      "proportionally larger at the scaled simulation resolution; "
      "savings percentages are therefore conservative.")
    savings = mean["write_savings"]
    w(f"* **MAB** write savings are {savings['MAB']:.3f} vs the paper's "
      f"{paper('mean.write_savings.MAB')}, while GAB is on target "
      f"({savings['GAB']:.3f} vs {paper('mean.write_savings.GAB')}): the "
      "synthesiser makes too many exact duplicates relative to "
      "gradient-only matches. Refitting its exact-vs-gradient "
      "similarity knobs is part of the ROADMAP joint-fit item.")
    w("* The **memory capacity ratio** (RtS/baseline) is "
      f"{mean['capacity_ratio']:.3f} vs {paper('mean.capacity_ratio')}: "
      "at its peak our "
      "Race-to-Sleep pool holds about two 16-frame batches (the next "
      "batch decodes while the previous one is still on screen) against "
      "a 4-buffer baseline peak, while the paper's 5.3x is one batch "
      "over triple buffering.")
    w(f"* **Fig. 1a** puts {fig1['memory_energy_share']:.3f} of baseline "
      f"energy in memory vs {paper('fig01a.memory_energy_share')}, and "
      "the VD pipeline's time share is "
      f"{fig1['vd_time_share']:.3f} vs {paper('fig01a.vd_time_share')}. "
      "The energy gap is the "
      "Act/Pre weight noted under Fig. 1a; the time-share gap has no "
      "known cause. Both belong to the ROADMAP joint-fit item.")
    w("* **Fig. 5**: racing saves "
      f"{fig5['v8_act_pre_saved_mj_per_frame']:.3f} mJ/frame of Act/Pre "
      "energy on V8 vs the paper's "
      f"{paper('fig05.v8_act_pre_saved_mj_per_frame')}, although its "
      f"Act/Pre count cut ({mean['act_pre_cut']:.3f}) is below the "
      f"paper's {paper('mean.act_pre_cut')}. The excess "
      "is energy per Act/Pre pair, most likely the same Act/Pre weight; "
      "the ROADMAP joint-fit item will confirm or refute it.")
    w("* **GAB+DCC** adds "
      f"{sec62['extra_write_savings']:.3f} write savings over DCC vs the "
      f"paper's {paper('sec62.extra_write_savings')}. No cause is known "
      "yet; see the ROADMAP joint-fit "
      "item.")
    return out.getvalue()


@dataclass
class ClaimCheck:
    """One paper claim, measured."""

    claim: str
    paper: str
    measured: float
    passed: bool

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.claim}: measured {self.measured:.3f} "
                f"(paper: {self.paper})")


def check_claims(ledger: JsonDict, run_set: str) -> List[ClaimCheck]:
    """Every bounded claim row defined on ``run_set``, checked on
    ``ledger``."""
    return [ClaimCheck(f"{claim.cite} {claim.label}",
                       f"{claim.paper}; bound {claim.bound_text}",
                       float(measure(ledger, claim.path)),
                       claim.holds(ledger))
            for claim in CLAIMS if claim.bound and run_set in claim.on]


def validate_against_paper(
    frames: int = RUN_SETS["validate"][0],
    progress: Optional[Callable[[str], None]] = None,
) -> List[ClaimCheck]:
    """The claim table checked on the ledger of ``repro validate``'s
    five videos at ``frames`` frames per run."""
    ledger = paper_ledger(frames, RUN_SETS["validate"][1], progress)
    return check_claims(ledger, "validate")


def summarize(checks: List[ClaimCheck]) -> str:
    """Human-readable report, the tier-1 tests that own the system
    claims, and a verdict line."""
    lines = [str(check) for check in checks]
    lines.append("\nSystem claims, each asserted by a tier-1 test "
                 "(python -m pytest <node id>):")
    lines.extend(f"  {claim}\n    {node}" for claim, node in SYSTEM_CLAIMS)
    passed = sum(check.passed for check in checks)
    lines.append(f"\n{passed}/{len(checks)} claims reproduced")
    return "\n".join(lines)


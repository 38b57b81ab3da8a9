"""Paper fidelity: the figure ledger and the ``repro validate`` claims.

:func:`paper_ledger` plays one run set -- every Table 1 video under the
Fig. 11 schemes, plus the variant runs the single-figure studies need
-- and computes every paper figure from it: per-video rows, mix means,
cuts and ratios.  It also plays the paper's extension studies (Sec.
3.3, 4.4, 6.4 and 7) and the BurstLink delivery studies.  :func:`render` turns that data into
``EXPERIMENTS.md``.  ``tools/make_experiments.py`` writes the ledger to
``EXPERIMENTS.json`` and renders the markdown from that file, and
``tests/test_paper_ledger.py`` asserts each figure's shape over it.

:func:`validate_against_paper` encodes the paper's claims as runnable
checks, each returning a :class:`ClaimCheck` with the measured value,
the paper's value, and a tolerance band.  ``repro validate`` runs them
from the command line: the compact, user-facing summary ("does my
checkout still reproduce the paper?").  Its paper-figure checks share
the ledger's matrix arithmetic over a small deterministic video set, so
the whole suite finishes in about 12 s at the default frame count
(2-vCPU host).
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, replace
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from .analysis import (
    Region, content_census, format_table, region_mix, stacked_time_cdf,
)
from .config import (
    BASELINE,
    BATCHING,
    DCC_ONLY,
    FIG11_SCHEMES,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    RACING,
    MachConfig,
    NetworkConfig,
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
    deliver_for_config,
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

#: Videos used by the validation suite (spanning the content classes).
_VIDEOS = ("V1", "V3", "V8", "V9", "V14")

#: The baseline mix of Fig. 1a's breakdown.
_FIG1A_MIX = ("V1", "V4", "V8", "V12")

#: The mix of the Fig. 9a capacity oracle and the Sec. 6.2 DCC study.
_VARIANT_MIX = ("V1", "V8", "V12", "V14")

_CDF_PARTS = ("execution", "short_slack", "transition", "s1", "s3")

#: One minute of 60 fps V8 per delivery: long enough for the radio's
#: tail energy to dominate.
_DELIVERY_FRAMES = 3600

JsonDict = Dict[str, Any]


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


class _Runs:
    """Simulation runs at one frame count and seed; :meth:`get`
    memoizes a run because several figures share it."""

    def __init__(self, frames: int, seed: int,
                 config: Optional[SimulationConfig]) -> None:
        self.frames = frames
        self.seed = seed
        self.config = config or SimulationConfig()
        self._cache: Dict[Tuple[Any, ...], RunResult] = {}

    def play(self, video: str, scheme: SchemeConfig,
             config: Optional[SimulationConfig] = None,
             **switches: bool) -> RunResult:
        """One unmemoized run (a variant of the matrix)."""
        return simulate(workload(video), scheme, n_frames=self.frames,
                        seed=self.seed, config=config or self.config,
                        **switches)

    def get(self, video: str, scheme: SchemeConfig,
            **switches: bool) -> RunResult:
        key = (video, scheme.name, *sorted(switches.items()))
        if key not in self._cache:
            self._cache[key] = self.play(video, scheme, **switches)
        return self._cache[key]


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


def _video_row(runs: _Runs, video: str, census_frames: int) -> JsonDict:
    """One video's Fig. 2b/4/5/7b/9a/10/11 quantities."""
    cfg = runs.config
    base, batch = runs.get(video, BASELINE), runs.get(video, BATCHING)
    racing, rts = runs.get(video, RACING), runs.get(video, RACE_TO_SLEEP)
    mab, gab = runs.get(video, MAB), runs.get(video, GAB)
    mix = region_mix(base.timeline.decode_time, cfg.video.frame_interval,
                     cfg.decoder.power_states)
    census = content_census(SyntheticVideo(
        cfg.video, workload(video), seed=runs.seed,
        n_frames=census_frames))
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
            scheme.name: runs.get(video, scheme).energy.total
            / base.energy.total for scheme in FIG11_SCHEMES},
    }


def _matrix_figures(runs: _Runs, videos: Sequence[str],
                   census_frames: int) -> JsonDict:
    """The figures of the videos x Fig. 11-schemes matrix.

    Per-video rows (``per_video``), their element-wise means
    (``mean``), the Race-to-Sleep frame drops summed over the videos,
    and the two Fig. 11 shape claims: GAB is the cheapest scheme on
    every video, and MAB costs more than Race-to-Sleep on V9 (false
    when V9 is not among ``videos``).  The census plays
    ``census_frames`` frames per video.
    """
    rows = {video: _video_row(runs, video, census_frames)
            for video in videos}
    gab_best = all(
        runs.get(v, GAB).energy.total  # repro-lint: disable=F001 exactness is the claim: GAB must literally be the min of the memoized totals
        == min(runs.get(v, s).energy.total for s in FIG11_SCHEMES)
        for v in videos)
    v9 = ("V9" in videos
          and runs.get("V9", MAB).energy.total
          > runs.get("V9", RACE_TO_SLEEP).energy.total)
    return {
        "videos": list(videos),
        "per_video": rows,
        "mean": _mean_rows(list(rows.values())),
        "rts_drops": sum(int(runs.get(v, RACE_TO_SLEEP).drops)
                         for v in videos),
        "gab_best_everywhere": gab_best,
        "v9_mab_regression": v9,
    }


def _engine_stats(video_cfg: VideoConfig, mach_cfg: MachConfig,
                  scheme: SchemeConfig, video: str, seed: int,
                  frames: int) -> MachStats:
    """MACH statistics of the write path alone over one stream."""
    engine = WritebackEngine(video_cfg, mach_cfg, scheme)
    for frame in SyntheticVideo(video_cfg, workload(video), seed=seed,
                                n_frames=frames):
        engine.process_frame(frame, frame.index << 20)
    stats = engine.stats
    assert stats is not None, "content-caching schemes keep MACH stats"
    return stats


def _mab_size_sweep(mach: MachConfig, seed: int,
                    frames: int) -> List[JsonDict]:
    """Fig. 12c: the MACH block size swept against the *same* pixel
    stream of V14, since content similarity lives at a fixed spatial
    scale: tiny blocks drown in per-block metadata, huge blocks rarely
    match exactly."""
    base_video = VideoConfig(width=192, height=120, block_size=4)
    stream = list(SyntheticVideo(base_video, workload("V14"), seed=seed,
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


def _hash_comparison(video_cfg: VideoConfig, seed: int,
                     frames: int) -> JsonDict:
    """Fig. 12d: digest collisions over V14's gradient blocks."""
    stream = list(SyntheticVideo(video_cfg, workload("V14"), seed=seed,
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


def _extension_studies(frames: int, seed: int) -> JsonDict:
    """Sec. 3.3, 4.4, 6.4 and 7 over ``frames`` frames per run; Sec.
    6.4's pipelines play at most 48 frames per video."""
    runs = _Runs(frames, seed, None)
    cfg = runs.config
    preroll: List[JsonDict] = []
    for depth in (4, 16, 120):
        # A thin streaming buffer underruns every scheme; Race-to-Sleep
        # adapts its batches to whatever is buffered.
        thin = SimulationConfig(network=NetworkConfig(
            preroll_frames=depth, chunk_interval=0.45))
        base = runs.play("V8", BASELINE, config=thin)
        rts = runs.play("V8", RACE_TO_SLEEP, config=thin)
        preroll.append({
            "preroll_frames": depth,
            "rts_normalized_energy": rts.energy.total / base.energy.total,
            "baseline_drops": base.drops,
            "rts_drops": rts.drops})
    coalesced = runs.get("V8", GAB)
    uncoalesced = runs.play("V8", GAB, config=replace(
        cfg, mach=replace(cfg.mach, coalescing=False)))
    pipeline_frames = min(frames, 48)
    pipelines: JsonDict = {}
    for video in ("V1", "V8", "V12"):
        clip = list(SyntheticVideo(cfg.video, workload(video), seed=seed,
                                   n_frames=pipeline_frames))
        pipelines[video] = {
            "recording_savings":
                RecordingPipeline(cfg).run(iter(clip)).total_savings,
            "render_savings":
                RenderPipeline(cfg).run(iter(clip)).total_savings}
    dvfs: JsonDict = {}
    for video in ("V1", "V6", "V8"):
        slack = simulate_slack_dvfs(workload(video), frames, seed=seed)
        base_vd = runs.get(video, BASELINE).energy.vd_total
        rts = runs.get(video, RACE_TO_SLEEP)
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


def _delivery_studies(seed: int) -> JsonDict:
    """BurstLink's delivery claims (PAPERS.md): V8 over an LTE-like
    24 Mbit/s trace, bursting the buffer full and parking the modem
    versus dripping one segment per segment duration."""
    video_cfg = VideoConfig()
    burst_rows = [_burst_vs_steady(trace_seed) for trace_seed in (0, seed, 11)]
    policies: JsonDict = {}
    for name, abr in (("fixed-0", make_abr("fixed", rung=0)),
                      ("fixed-top", make_abr("fixed", rung=99)),
                      ("rate", make_abr("rate")),
                      ("bba", make_abr("bba"))):
        result = _deliver_v8("burst", abr, seed)
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
        steady = _deliver_v8("steady", abr, seed, radio=radio)
        burst = _deliver_v8("burst", abr, seed, radio=radio)
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
    """Every paper figure, computed once from one run set at seed 7.

    ``videos`` (default: all of Table 1) are played under the Fig. 11
    schemes, the Fig. 9a capacity oracle, the Fig. 10e naive display
    layout and the Sec. 6.2 DCC pair; the single-figure studies run
    their own fixed videos, and the extension studies play at most 96
    frames.  The result is plain JSON data:
    ``EXPERIMENTS.json`` is this function's output at the defaults,
    plus the host fingerprint the writing tool adds.
    """
    runs = _Runs(frames, 7, None)
    cfg, video_cfg, seed = runs.config, runs.config.video, runs.seed
    videos = list(videos or workload_keys())

    def report(name: str) -> None:
        if progress is not None:
            progress(name)

    report("Fig. 11 matrix")
    ledger: JsonDict = {"frames": frames, "seed": seed}
    ledger.update(_matrix_figures(runs, videos,
                                 census_frames=min(frames, 96)))

    report("single-video studies")
    fig1 = [runs.get(video, BASELINE) for video in _FIG1A_MIX]
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
    v8 = {scheme.name: runs.get("V8", scheme) for scheme in FIG11_SCHEMES}
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

    report("Fig. 6 batch sweep")
    batches = (1, 2, 4, 8, 16)
    ledger["fig06"] = {"batch_sizes": list(batches)}
    for label, racing in (("low_freq", False), ("high_freq", True)):
        ledger["fig06"][label] = [
            runs.play("V8", SchemeConfig(name=f"b{batch}",
                                         batch_size=batch,
                                         racing=racing)).energy.total
            / base8.energy.total for batch in batches]

    report("Fig. 7a cache study")
    ledger["fig07a"] = [asdict(result) for result in vd_cache_study(
        video_cfg, [2048, 4096, 8192, 16384, 32768], frames=3)]
    ledger["table1"] = {
        profile.key: {"name": profile.name,
                      "description": profile.description,
                      "n_frames": profile.n_frames}
        for profile in PAPER_WORKLOADS}

    report("Fig. 9 MACH studies")

    def optimal(video: str) -> float:
        return runs.get(video, GAB, unbounded_mach=True).write_savings

    ledger["fig09"] = {
        "videos": list(_VARIANT_MIX),
        "gab_write_savings": _mean(runs.get(video, GAB).write_savings
                                   for video in _VARIANT_MIX),
        "optimal_write_savings": _mean(map(optimal, _VARIANT_MIX)),
        "per_video_optimal_write_savings": {
            video: optimal(video) for video in videos},
        "mean_optimal_write_savings": _mean(map(optimal, videos)),
        "v8_top_digest_share": {},
    }
    for scheme in (MAB, GAB):
        stats = _engine_stats(
            video_cfg, cfg.with_scheme_mach(scheme).scaled_for(video_cfg),
            scheme, "V8", seed, min(frames, 64))
        ledger["fig09"]["v8_top_digest_share"][scheme.name] = {
            "top1": stats.top_match_share(1),
            "top8": stats.top_match_share(8)}

    report("Fig. 10 display studies")

    def naive_extra_reads(video: str) -> float:
        """Extra reads of the pointer layout without display caching."""
        reads = _reads(runs.get(video, GAB, use_display_cache=False,
                                use_mach_buffer=False))
        return reads.mem_reads / reads.raw_equivalent_lines - 1

    ledger["fig10"] = {
        "v8_naive_extra_reads": naive_extra_reads("V8"),
        "per_video_naive_extra_reads": {
            video: naive_extra_reads(video) for video in videos},
        "mean_naive_extra_reads": _mean(map(naive_extra_reads, videos)),
        "v8_cache_size_sweep": [],
    }
    for size in (2048, 4096, 8192, 16384, 65536):
        sized = runs.play("V8", GAB, config=replace(cfg, display=replace(
            cfg.display, display_cache_bytes=size)))
        ledger["fig10"]["v8_cache_size_sweep"].append({
            "display_cache_bytes": size,
            "read_savings": sized.read_savings,
            "dc_hits": int(_reads(sized).dc_hits)})

    ledger["fig11"] = {"v8_stacks": {
        name: run.energy.normalized_to(base8.energy)
        for name, run in v8.items()}}

    report("Sec. 6.2 DCC")

    def dcc_extra(video: str) -> float:
        """GAB+DCC's write savings over plain DCC's."""
        base_bytes = runs.get(video, BASELINE).write_bytes
        dcc = runs.get(video, DCC_ONLY).write_bytes
        combo = runs.get(video, GAB_DCC).write_bytes
        return (1 - combo / base_bytes) - (1 - dcc / base_bytes)

    ledger["sec62"] = {
        "videos": list(_VARIANT_MIX),
        "extra_write_savings": _mean(map(dcc_extra, _VARIANT_MIX)),
        "per_video_extra_write_savings": {
            video: dcc_extra(video) for video in videos},
        "mean_extra_write_savings": _mean(map(dcc_extra, videos)),
    }

    report("Fig. 12 sensitivity")
    ledger["fig12a"] = []
    for count in (2, 4, 8, 16):
        run = runs.play("V8", GAB, config=replace(
            cfg, mach=replace(cfg.mach, num_machs=count)))
        ledger["fig12a"].append({
            "num_machs": count,
            "peak_footprint_mb": run.peak_footprint_native_mb,
            "write_savings": run.write_savings})
    ledger["fig12b"] = []
    for count in (64, 256, 1024, 2048, 8192):
        run = runs.play("V8", GAB, config=replace(
            cfg, mach=replace(cfg.mach, buffer_entries=count)))
        reads = _reads(run)
        ledger["fig12b"].append({
            "buffer_entries": count,
            "hit_rate": reads.mb_hits / max(reads.mb_hits + reads.mb_misses, 1),
            "read_savings": run.read_savings})
    ledger["fig12c"] = _mab_size_sweep(cfg.mach, seed, min(frames, 32))
    ledger["fig12d"] = _hash_comparison(video_cfg, seed, min(frames, 24))
    ledger["sec63"] = {}
    for label, co_mach in (("crc32", False), ("co_mach_crc48", True)):
        stats = _engine_stats(
            video_cfg, replace(cfg.mach, co_mach=co_mach).scaled_for(
                video_cfg), GAB, "V8", seed, min(frames, 24))
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

    report("extension studies")
    ledger.update(_extension_studies(min(frames, 96), seed))
    report("delivery studies")
    ledger.update(_delivery_studies(seed))
    return ledger


#: The paper's Fig. 11 averages, in the ledger's scheme order.
_PAPER_FIG11 = [1.0, 0.93, 1.12, 0.887, 0.875, 0.79]

#: The paper's Fig. 2b region mix.
_PAPER_REGIONS = {"I": 0.04, "II": 0.12, "III": 0.37, "IV": 0.40}

#: The Fig. 7a cache capacities EXPERIMENTS.md shows (of the five run).
_FIG7A_RENDERED = (2048, 8192, 32768)


def render(ledger: Dict[str, Any]) -> str:
    """EXPERIMENTS.md from a loaded EXPERIMENTS.json."""
    out = io.StringIO()

    def w(text: str = "") -> None:
        out.write(text + "\n")

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
    w(format_table(
        ["component", "measured", "paper"],
        [["VD pipeline (energy)", fig1["vd_energy_share"], 0.297],
         ["memory (energy)", fig1["memory_energy_share"], 0.458],
         ["display (energy)", fig1["display_energy_share"], "n/a"],
         ["VD pipeline (time share)", fig1["vd_time_share"], 0.499]],
        title=""))
    w()
    w("The decoder + memory dominate (paper: ~75 % of energy); our "
      "calibration puts more weight on Act/Pre so that the Sec. 3.3 "
      "post-RtS memory shares match (see below).")
    w()

    w("## Fig. 2b-2e — frame regions and stacked CDFs")
    w()
    w(format_table(
        ["region", "measured", "paper"],
        [[region, share, _PAPER_REGIONS[region]]
         for region, share in mean["regions"].items()]
        + [["drop rate", mean["drop_rate"], 0.04]], title=""))
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

    fig4 = ledger["fig04"]
    w("## Fig. 4 / Sec. 3.3 — batching, racing, Race-to-Sleep")
    w()
    w(format_table(
        ["metric", "measured", "paper"],
        [["batching transition-energy cut",
          mean["transition_energy_cut"], 0.86],
         ["baseline S3 residency", mean["baseline_s3"], 0.05],
         ["Race-to-Sleep S3 residency", mean["rts_s3"], 0.60],
         ["Race-to-Sleep frame drops (all videos)", ledger["rts_drops"], 0],
         ["memory capacity ratio (RtS/baseline)", mean["capacity_ratio"],
          5.3],
         ["memory share of RtS energy (V8)", fig4["v8_rts_memory_share"],
          0.642],
         ["Act/Pre share of RtS energy (V8)", fig4["v8_rts_act_pre_share"],
          0.46],
         ["burst share of RtS energy (V8)", fig4["v8_rts_burst_share"],
          0.127]],
        title=""))
    w()

    fig5 = ledger["fig05"]
    w("## Fig. 5 — VD frequency vs DRAM Act/Pre")
    w()
    w(format_table(
        ["metric", "measured", "paper"],
        [["Act/Pre count cut from racing (avg)", mean["act_pre_cut"],
          "~0.20"],
         ["extra VD energy (V8, mJ/frame)",
          fig5["v8_extra_vd_mj_per_frame"], 0.5],
         ["memory Act/Pre saved (V8, mJ/frame)",
          fig5["v8_act_pre_saved_mj_per_frame"], 1.0]],
        title=""))
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
    census = mean["census"]
    w(format_table(
        ["class", "measured", "paper"],
        [["intra match", census["intra"], 0.42],
         ["inter match", census["inter"], 0.15],
         ["no match", census["none"], 0.43]],
        title="Fig. 7b census (16-frame window, 16-video average)"))
    w()

    w("## Fig. 9 — MACH savings")
    w()
    w(format_table(
        ["metric", "measured", "paper"],
        [["mab write savings (avg)", mean["write_savings"]["MAB"], 0.13],
         ["gab write savings (avg)", mean["write_savings"]["GAB"], 0.34],
         ["optimal-gab write savings (4-video avg)",
          ledger["fig09"]["optimal_write_savings"], "~0.41"]],
        title=""))
    w()

    w("## Fig. 10 — display caching")
    w()
    w(format_table(
        ["metric", "measured", "paper"],
        [["DC read savings (avg)", mean["read_savings"], 0.335],
         ["digest-indexed records (avg)", mean["digest_fraction"], 0.38],
         ["fragmenting pointer fetches (avg)", mean["fragmentation_rate"],
          ">0.45"],
         ["extra reads, naive layout (V8)",
          ledger["fig10"]["v8_naive_extra_reads"], ">0.60"]],
        title=""))
    w()

    w("## Fig. 11 — normalized energy (the headline)")
    w()
    schemes = list(mean["normalized_energy"])
    rows11 = [[video] + list(row["normalized_energy"].values())
              for video, row in ledger["per_video"].items()]
    rows11.append(["**Avg**"] + list(mean["normalized_energy"].values()))
    rows11.append(["paper avg"] + _PAPER_FIG11)
    w(format_table(["video"] + schemes, rows11, title=""))
    w()
    w("Shape checks that hold: GAB is the best scheme on **every** "
      "video; Racing alone *costs* energy; V9 shows the paper's MAB "
      "regression (MAB worse than Race-to-Sleep); V8 is among the "
      "strongest GAB videos; Race-to-Sleep eliminates all frame drops.")
    w()

    sec62 = ledger["sec62"]
    w("## Sec. 6.2 — GAB + DCC")
    w()
    w(format_table(
        ["metric", "measured", "paper"],
        [["extra write savings of GAB+DCC over DCC (4-video avg)",
          sec62["extra_write_savings"], 0.18]], title=""))
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
    w(format_table(
        ["trace seed", "steady stalls", "burst stalls", "steady radio (J)",
         "burst radio (J)", "burst/steady"],
        [[row["trace_seed"], row["steady_stalls"], row["burst_stalls"],
          row["steady_radio"], row["burst_radio"],
          row["burst_radio"] / row["steady_radio"]]
         for row in ledger["delivery_burst"]],
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
      f"0.13, while GAB is on target ({savings['GAB']:.3f} vs 0.34): the "
      "synthesiser makes too many exact duplicates relative to "
      "gradient-only matches. Refitting its exact-vs-gradient "
      "similarity knobs is part of the ROADMAP joint-fit item.")
    w("* The **memory capacity ratio** (RtS/baseline) is "
      f"{mean['capacity_ratio']:.3f} vs 5.3: at its peak our "
      "Race-to-Sleep pool holds about two 16-frame batches (the next "
      "batch decodes while the previous one is still on screen) against "
      "a 4-buffer baseline peak, while the paper's 5.3x is one batch "
      "over triple buffering.")
    w(f"* **Fig. 1a** puts {fig1['memory_energy_share']:.3f} of baseline "
      f"energy in memory vs 0.458, and the VD pipeline's time share is "
      f"{fig1['vd_time_share']:.3f} vs 0.499. The energy gap is the "
      "Act/Pre weight noted under Fig. 1a; the time-share gap has no "
      "known cause. Both belong to the ROADMAP joint-fit item.")
    w("* **Fig. 5**: racing saves "
      f"{fig5['v8_act_pre_saved_mj_per_frame']:.3f} mJ/frame of Act/Pre "
      "energy on V8 vs the paper's 1.0, although its Act/Pre count cut "
      f"({mean['act_pre_cut']:.3f}) is below the paper's ~0.20. The excess "
      "is energy per Act/Pre pair, most likely the same Act/Pre weight; "
      "the ROADMAP joint-fit item will confirm or refute it.")
    w("* **GAB+DCC** adds "
      f"{sec62['extra_write_savings']:.3f} write savings over DCC vs the "
      "paper's 0.18. No cause is known yet; see the ROADMAP joint-fit "
      "item.")
    return out.getvalue()


def validate_against_paper(
    frames: int = 96,
    seed: int = 7,
    config: Optional[SimulationConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ClaimCheck]:
    """Run every claim check; returns the list of results."""
    runs = _Runs(frames, seed, config)
    cfg = runs.config
    checks: List[ClaimCheck] = []

    def report(name: str) -> None:
        if progress is not None:
            progress(name)

    def add(claim: str, paper: str, measured: float, ok: bool) -> None:
        checks.append(ClaimCheck(claim, paper, float(measured), bool(ok)))

    # --- paper figures over the validation videos ------------------------
    report("paper figures")
    figures = _matrix_figures(runs, _VIDEOS, census_frames=min(frames, 64))
    mean = figures["mean"]

    # Fig. 2b: baseline regions and drops.
    drop = mean["drop_rate"]
    add("baseline frame-drop rate", "~0.04", drop, 0.005 < drop < 0.10)
    sleep_capable = mean["regions"]["III"] + mean["regions"]["IV"]
    add("region III+IV share (sleep-capable frames)", ">=0.7",
        sleep_capable, sleep_capable >= 0.65)

    # Fig. 7b: content census.
    match, none = mean["census"]["match"], mean["census"]["none"]
    add("census: blocks matching (intra+inter)", "~0.57", match,
        0.45 < match < 0.70)
    add("census: no-match share", "~0.43", none, 0.30 < none < 0.55)

    # Race-to-Sleep behaviours.
    rts_drops = figures["rts_drops"]
    add("Race-to-Sleep frame drops", "0", rts_drops, rts_drops == 0)
    s3 = mean["rts_s3"]
    add("Race-to-Sleep deep-sleep residency", "~0.60", s3, 0.45 < s3 < 0.75)
    trans_cut = mean["transition_energy_cut"]
    add("batching transition-energy cut", "~0.86", trans_cut,
        trans_cut > 0.7)
    act_cut = mean["act_pre_cut"]
    add("racing Act/Pre cut", "~0.20", act_cut, 0.05 < act_cut < 0.45)

    # MACH savings.
    gab_wr = mean["write_savings"]["GAB"]
    mab_wr = mean["write_savings"]["MAB"]
    add("gab write-traffic savings", "~0.34", gab_wr, 0.2 < gab_wr < 0.5)
    add("mab write-traffic savings", "~0.13", mab_wr,
        -0.05 < mab_wr < gab_wr)
    gab_rd = mean["read_savings"]
    add("gab display read savings", "~0.335", gab_rd, 0.15 < gab_rd < 0.5)
    dig = mean["digest_fraction"]
    add("digest-indexed record share", "~0.38", dig, 0.2 < dig < 0.55)

    # Fig. 11 ordering.
    normalized = mean["normalized_energy"]
    add("Racing-alone energy (normalized)", ">1.0 (~1.12)",
        normalized["Racing"], normalized["Racing"] > 1.0)
    add("Race-to-Sleep energy (normalized)", "~0.887",
        normalized["Race-to-Sleep"],
        0.85 < normalized["Race-to-Sleep"] < 0.97)
    add("MAB energy (normalized)", "~0.875", normalized["MAB"],
        0.80 < normalized["MAB"] < 0.95)
    add("GAB energy (normalized)", "~0.79", normalized["GAB"],
        0.72 < normalized["GAB"] < 0.90)
    gab_best = figures["gab_best_everywhere"]
    add("GAB best on every video", "yes", float(gab_best), gab_best)
    v9 = figures["v9_mab_regression"]
    add("V9 MAB regression (MAB worse than RtS)", "yes", float(v9), v9)

    # --- delivery side: burst downloads race the radio to sleep -----------
    # (BurstLink's recipe, PAPERS.md — the delivery-side mirror of the
    # paper's Race-to-Sleep.)  Pure arithmetic, no pipeline run.
    report("network")
    # The ledger's seed row (``delivery_burst``), computed the same way.
    burst_row = _burst_vs_steady(seed)
    same_stalls = burst_row["burst_stalls"] == burst_row["steady_stalls"]
    ratio = burst_row["burst_radio"] / burst_row["steady_radio"]
    add("burst-vs-steady radio energy at equal stalls (BurstLink)",
        "<1.0", ratio, same_stalls and ratio < 1.0)

    # --- fault injection and resilience ------------------------------------
    report("faults")
    from .config import FaultConfig

    # 1. A faulted playback completes, conceals a bounded fraction of
    #    blocks, and never lets an injected digest collision reach the
    #    screen: every one is verified and falls back to a full store.
    fault_sim = replace(cfg, faults=FaultConfig(
        block_bit_error=2e-5, digest_collision=1e-3))
    faulted = simulate(workload("V8"), GAB, n_frames=frames,
                       seed=seed, config=fault_sim)
    clean = runs.get("V8", GAB)
    total_blocks = faulted.n_frames * cfg.video.blocks_per_frame
    conceal_frac = faulted.concealed_blocks / total_blocks
    resilient = (faulted.concealed_blocks > 0
                 and conceal_frac < 0.05
                 and faulted.injected_collisions > 0
                 and faulted.fallback_writes == faulted.injected_collisions
                 and faulted.silent_collisions == clean.silent_collisions)
    add("faulted run: bounded concealment, zero wrong MACH blocks",
        "<0.05 concealed, 0 silent", conceal_frac, resilient)

    # 2. Retries are not free: on a constant link with a pinned rung
    #    (so ABR cannot mask the extra transfers), a lossy run's radio
    #    active energy must be at least the lossless run's.
    lossy_net = replace(cfg.network, mode="trace", trace_kind="constant",
                        abr="fixed", abr_fixed_rung=2, trace_seed=seed,
                        download_mode="burst")
    lossless_d = deliver_for_config(lossy_net, cfg.video,
                                    source=workload("V8"),
                                    n_frames=1800, seed=seed)
    lossy_d = deliver_for_config(lossy_net, cfg.video,
                                 source=workload("V8"),
                                 n_frames=1800, seed=seed,
                                 faults=FaultConfig(segment_loss=0.25,
                                                    seed=3))
    retry_ratio = (lossy_d.radio.active_energy
                   / max(lossless_d.radio.active_energy, 1e-12))
    add("lossy delivery pays for its retries (radio active energy)",
        ">=1.0", retry_ratio,
        lossy_d.retries > 0 and retry_ratio >= 1.0)

    # --- thermal pressure and the degradation ladder ----------------------
    report("thermal")
    from .config import ThermalConfig

    def thermal_sim(duty: float, adaptive: bool) -> RunResult:
        # Short pre-roll (just above the 27-frame chunk) keeps batch
        # formation deadline-bound, so a revoked boost actually bites.
        thermal = ThermalConfig(
            enabled=True, adaptive=adaptive, seed=seed,
            event_interval=1.0, cap_drop_rate=1.0, cap_drop_duty=duty,
            delayed_transition_rate=0.5)
        pressed = replace(
            cfg, thermal=thermal,
            network=replace(cfg.network, preroll_frames=30))
        return simulate(workload("V5"), RACE_TO_SLEEP, n_frames=frames,
                        seed=seed, config=pressed)

    # 1. Under a cap that revokes boost for most of the session, the
    #    adaptive governor must walk its ladder and keep drops strictly
    #    below the fixed-batch governor's (zero, for this workload),
    #    within 5% of the fixed governor's energy.
    adaptive_run = thermal_sim(0.55, True)
    fixed_run = thermal_sim(0.55, False)
    throttled_frac = adaptive_run.throttle_seconds / adaptive_run.elapsed
    energy_ratio = adaptive_run.energy.total / fixed_run.energy.total
    graceful = (throttled_frac >= 0.5
                and fixed_run.drops > 0
                and adaptive_run.drops == 0
                and adaptive_run.degradation_steps > 0
                and energy_ratio < 1.05)
    add("throttled run: adaptive ladder drops below fixed RtS",
        "0 vs >0 drops, <1.05x energy", float(adaptive_run.drops),
        graceful)

    # 2. Severity must price monotonically: revoking boost for longer
    #    can only stretch the active window, shrink deep sleep, and
    #    cost energy.
    sweep = [thermal_sim(0.0, True), adaptive_run, thermal_sim(1.0, True)]
    energies = [run.energy.total for run in sweep]
    throttles = [run.throttle_seconds for run in sweep]
    monotone = (all(a <= b for a, b in zip(energies, energies[1:]))
                and all(a <= b for a, b in zip(throttles, throttles[1:]))
                and throttles[-1] > 0)
    add("thermal severity: energy monotone in revoked-boost duty",
        "non-decreasing", energies[-1] / energies[0], monotone)

    # 3. A killed-and-resumed matrix is bit-identical to an
    #    uninterrupted one: the checkpoint holds exact results and the
    #    remaining jobs are deterministic.
    report("checkpoint")
    import os
    import tempfile

    from .runner import run_matrix

    ckpt_frames = min(frames, 32)
    ckpt_schemes = (BASELINE, GAB)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "matrix.json")
        run_matrix(videos=["V1"], schemes=ckpt_schemes,
                   n_frames=ckpt_frames, seed=seed, config=cfg,
                   processes=1, checkpoint=ckpt)  # the "killed" run
        resumed = run_matrix(videos=["V1", "V3"], schemes=ckpt_schemes,
                             n_frames=ckpt_frames, seed=seed, config=cfg,
                             processes=1, checkpoint=ckpt)
    fresh = run_matrix(videos=["V1", "V3"], schemes=ckpt_schemes,
                       n_frames=ckpt_frames, seed=seed, config=cfg,
                       processes=1)
    identical = (len(resumed.resumed) == len(ckpt_schemes)
                 and set(resumed) == set(fresh)
                 and all(resumed[k].energy.total == fresh[k].energy.total  # repro-lint: disable=F001 exactness is the claim: a JSON round trip must be bit-identical
                         and (resumed[k].timeline.finish
                              == fresh[k].timeline.finish).all()
                         for k in fresh))
    add("checkpoint-resumed matrix bit-identical to uninterrupted",
        "yes", float(identical), identical)

    # --- fleet: flow-level population engine ------------------------------
    report("fleet")
    from .fleet import (
        DeviceClass,
        LognormalComponent,
        PopulationSpec,
        RegionSpec,
        calibrate,
        run_fleet,
    )
    # A population whose every session plays exactly the calibration
    # frame count (zero duration spread) on an unconstrained link, so
    # the surrogate's per-title play energy is structurally the exact
    # pipeline's — any gap is the streaming aggregation itself.
    fleet_frames = min(frames, 32)
    fleet_titles = ("V1", "V8")
    pinned = fleet_frames / cfg.video.fps
    fleet_spec = PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="dense", cells=3, cell_capacity=10 * MBPS,
            bandwidth=(LognormalComponent(median=8 * MBPS, sigma=0.3),),
        ),),
        titles=fleet_titles,
        zipf_exponent=0.9,
        duration_median_seconds=pinned,
        duration_sigma=0.0,
        duration_min_seconds=pinned / 2,
        duration_max_seconds=pinned * 2,
        arrival_window_seconds=2.0,
        epoch_seconds=0.5,
        calib_frames=fleet_frames,
        calib_seed=seed,
    )
    device_cfg = fleet_spec.device_classes[0].to_simulation_config(cfg)
    fleet_calib = calibrate(fleet_spec, config=cfg)

    # 1. Fleet online aggregates vs the exact matrix: the streamed
    #    per-title (and overall) mean play energy must match the
    #    run_matrix figures within the aggregation quantum.
    matrix = run_matrix(videos=list(fleet_titles), schemes=(GAB,),
                        n_frames=fleet_frames, seed=seed,
                        config=device_cfg, processes=1)
    exact = {video: matrix[(video, GAB.name)].energy.total
             for video in fleet_titles}
    surrogate_run = run_fleet(fleet_spec, 5000, seed=seed, shards=3,
                              contention=False,
                              calibration=fleet_calib, config=cfg)
    errors: List[float] = []
    weighted = 0.0
    for title in fleet_titles:
        cohort = surrogate_run.cohort(f"title:{title}")
        measured_mean = cohort.moments["play_energy"].mean
        errors.append(abs(measured_mean - exact[title]) / exact[title])
        weighted += cohort.count * exact[title]
    fleet_mean = surrogate_run.cohort("fleet").moments["play_energy"].mean
    weighted /= surrogate_run.n_sessions
    errors.append(abs(fleet_mean - weighted) / weighted)
    worst = max(errors)
    add("fleet online aggregates match exact run_matrix energies",
        "<0.5% relative", worst, worst < 5e-3)

    # 2. Shared cells must price congestion: at equal population the
    #    cell-contention fleet dominates the private-trace fleet in
    #    both stalls and energy (stall power + stretched radio windows).
    contended = run_fleet(fleet_spec, 5000, seed=seed, shards=2,
                          contention=True,
                          calibration=fleet_calib, config=cfg)
    private = run_fleet(fleet_spec, 5000, seed=seed, shards=2,
                        contention=False,
                        calibration=fleet_calib, config=cfg)
    contended_fleet = contended.cohort("fleet")
    private_fleet = private.cohort("fleet")
    energy_ratio = (contended_fleet.moments["total_energy"].mean
                    / private_fleet.moments["total_energy"].mean)
    stall_gap = (contended_fleet.moments["stall_seconds"].mean
                 - private_fleet.moments["stall_seconds"].mean)
    dominates = (contended.saturated_cell_epochs > 0
                 and energy_ratio > 1.0
                 and stall_gap > 0.0)
    add("cell-contention fleet dominates private-trace fleet",
        ">1.0x energy, more stalls", energy_ratio, dominates)

    # 3. Supervised shard execution under injected crashes, stalls,
    #    and corrupt partials must reproduce the undisturbed serial
    #    run bit for bit: retried, speculated, and re-delivered
    #    stripes fold into the result exactly once.
    import json as json_mod

    from .faults import ShardFaultConfig
    from .fleet import (
        SupervisedFleetRun,
        SupervisorConfig,
        run_fleet_supervised,
    )

    serial_ref = run_fleet(fleet_spec, 3000, seed=seed, shards=1,
                           contention=True,
                           calibration=fleet_calib, config=cfg)
    chaos_run = run_fleet_supervised(
        fleet_spec, 3000, seed=seed, shards=4, contention=True,
        calibration=fleet_calib, config=cfg,
        faults=ShardFaultConfig(crash_rate=0.35, stall_rate=0.1,
                                corrupt_rate=0.25,
                                max_faulty_attempts=2, seed=seed + 1),
        supervisor=SupervisorConfig(
            workers=2, lease_seconds=0.8, heartbeat_seconds=0.1,
            max_retries=6, backoff_base=0.02, backoff_cap=0.25))
    absorbed = chaos_run.report.faults_absorbed
    identical = (json_mod.dumps(serial_ref.to_jsonable(), sort_keys=True)
                 == json_mod.dumps(chaos_run.result.to_jsonable(),
                                   sort_keys=True))
    add("supervised fleet under injected crashes matches serial run",
        "bit-identical JSON, faults absorbed", float(absorbed),
        identical and absorbed > 0)

    # 4. Speculative re-execution is a latency tool, not a result
    #    knob: under a seeded slow-worker distribution it must cut the
    #    p99 stripe completion time without changing a bit of the
    #    result.  (Slow workers sleep, so even a single-core CI box
    #    shows the win.)
    slow_faults = ShardFaultConfig(slow_rate=0.4, slow_seconds=2.0,
                                   max_faulty_attempts=1,
                                   seed=seed + 2)

    def speculation_run(speculate: bool) -> SupervisedFleetRun:
        return run_fleet_supervised(
            fleet_spec, 3000, seed=seed, shards=6, contention=False,
            calibration=fleet_calib, config=cfg, faults=slow_faults,
            supervisor=SupervisorConfig(
                workers=2, lease_seconds=4.0, heartbeat_seconds=0.1,
                max_retries=3, backoff_base=0.02, backoff_cap=0.25,
                speculate=speculate, speculation_min_seconds=0.4))

    patient = speculation_run(False)
    eager = speculation_run(True)
    p99_patient = patient.report.p99_task_seconds("score")
    p99_eager = eager.report.p99_task_seconds("score")
    p99_ratio = p99_eager / max(p99_patient, 1e-9)
    same_bits = (json_mod.dumps(patient.result.to_jsonable(),
                                sort_keys=True)
                 == json_mod.dumps(eager.result.to_jsonable(),
                                   sort_keys=True))
    add("speculation cuts p99 stripe time without changing the result",
        "<0.7x p99, bit-identical", p99_ratio,
        same_bits and eager.report.speculations > 0
        and p99_ratio < 0.7)

    # --- realtime: emergent impairments, recovery, and the ladder ---------
    report("realtime")
    from .config import RealtimeConfig
    from .realtime import RealtimeResult, simulate_realtime

    # 1. FEC beats bounded retransmission on deadline-miss fraction when
    #    the RTT does not fit the latency budget, at comparable byte
    #    overhead.  One-way propagation of 70 ms against a 150 ms budget
    #    means any retransmission arrives a full RTT (~140 ms + queue)
    #    late, while XOR parity rides along with the first pass.  Loss
    #    backoff is disabled (loss_threshold=1) so the 20 % injected
    #    loss prices both modes identically and only the delay half of
    #    the controller shapes the send rate.
    rt_profile = workload("V8")
    rt_frames = max(frames, 240)

    def recovery_run(mode: str) -> RealtimeResult:
        rt = RealtimeConfig(
            enabled=True, propagation_delay=0.070, latency_budget=0.150,
            link_rate=6 * MBPS, start_rate=3 * MBPS, min_rate=1 * MBPS,
            max_rate=4 * MBPS, ladder=False, fec_group=6, max_retx=2,
            loss_threshold=1.0, recovery=mode, seed=seed)
        rt_cfg = replace(cfg, realtime=rt,
                         faults=FaultConfig(packet_loss=0.20, seed=seed))
        return simulate_realtime(rt_cfg, n_frames=rt_frames,
                                 profile=rt_profile)

    fec_run = recovery_run("fec")
    retx_run = recovery_run("retx")
    overhead_ratio = fec_run.byte_overhead / max(retx_run.byte_overhead,
                                                 1e-12)
    miss_ratio = (fec_run.deadline_miss_fraction
                  / max(retx_run.deadline_miss_fraction, 1e-12))
    fec_wins = (retx_run.deadline_miss_fraction > 0
                and miss_ratio < 0.5
                and 1 / 1.5 < overhead_ratio < 1.5)
    add("FEC beats retx on deadline misses at high RTT (equal overhead)",
        "<0.5x misses, overhead within 1.5x", miss_ratio, fec_wins)

    # 2. The deadline ladder converts lateness into bounded degradation:
    #    under bandwidth cliffs it must strictly cut p99 frame lateness
    #    versus the same session with the ladder disabled, at no more
    #    than 5 % extra energy.
    cliff = ((3.0, 0.22), (6.0, 1.0), (9.0, 0.22), (12.0, 1.0))

    def ladder_run(ladder: bool) -> RealtimeResult:
        rt = RealtimeConfig(enabled=True, link_rate=6 * MBPS,
                            ladder=ladder, rate_schedule=cliff, seed=seed)
        return simulate_realtime(replace(cfg, realtime=rt),
                                 n_frames=max(2 * frames, 480),
                                 profile=rt_profile)

    with_ladder = ladder_run(True)
    without_ladder = ladder_run(False)
    rt_energy_ratio = with_ladder.total_energy / without_ladder.total_energy
    ladder_helps = (without_ladder.p99_lateness() > 0
                    and with_ladder.p99_lateness()
                    < without_ladder.p99_lateness()
                    and with_ladder.degradation_steps > 0
                    and rt_energy_ratio <= 1.05)
    add("deadline ladder strictly cuts p99 lateness under cliffs",
        "lower p99, <=1.05x energy", rt_energy_ratio, ladder_helps)

    return checks


def summarize(checks: List[ClaimCheck]) -> str:
    """Human-readable report plus a verdict line."""
    lines = [str(check) for check in checks]
    passed = sum(check.passed for check in checks)
    lines.append(f"\n{passed}/{len(checks)} claims reproduced")
    return "\n".join(lines)

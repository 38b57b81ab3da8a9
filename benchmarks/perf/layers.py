"""The per-layer metric catalogue, derived from one traced pass.

Layer names are module names.  Playback layers are normalised per
simulated frame (frames pulled from the synthesiser in the traced
pass), fleet layers per 1k sessions, and host times are scaled to the
reference probe speed like every other time the benchmark reports.
The exact model counts come from the ``RunResult`` objects of the first
traced root: one traced repetition, or for ``fleet_300k`` the 24 runs of
``calibrate()`` in its traced set-up.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from . import tracing

#: (metric, ledger key, ledger field, normaliser, unit).
LAYER_METRICS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("video.synthesis.ms_per_frame", "video.synthesis", "incl_s", "frame",
     "ms"),
    ("core.writeback.ms_per_frame", "core.writeback", "incl_s", "frame", "ms"),
    ("core.writeback.self_ms_per_frame", "core.writeback", "self_s", "frame",
     "ms"),
    ("hashing.crc.ms_per_frame", "hashing.crc", "incl_s", "frame", "ms"),
    ("hashing.crc.calls_per_frame", "hashing.crc", "calls", "frame", "count"),
    ("core.gradient.ms_per_frame", "core.gradient", "incl_s", "frame", "ms"),
    ("core.gradient.calls_per_frame", "core.gradient", "calls", "frame",
     "count"),
    ("compression.dcc.ms_per_frame", "compression.dcc", "incl_s", "frame",
     "ms"),
    ("compression.dcc.calls_per_frame", "compression.dcc", "calls", "frame",
     "count"),
    ("core.mach.ms_per_frame", "core.mach", "incl_s", "frame", "ms"),
    ("core.mach.calls_per_frame", "core.mach", "calls", "frame", "count"),
    ("core.readpath.ms_per_frame", "core.readpath", "incl_s", "frame", "ms"),
    ("core.readpath.calls_per_frame", "core.readpath", "calls", "frame",
     "count"),
    ("decoder.vd.ms_per_frame", "decoder.vd", "incl_s", "frame", "ms"),
    ("core.race_to_sleep.ms_per_frame", "core.race_to_sleep", "incl_s",
     "frame", "ms"),
    ("core.race_to_sleep.calls_per_frame", "core.race_to_sleep", "calls",
     "frame", "count"),
    ("thermal.ms_per_frame", "thermal", "incl_s", "frame", "ms"),
    ("thermal.calls_per_frame", "thermal", "calls", "frame", "count"),
    ("memory.controller.ms_per_frame", "memory.controller", "incl_s",
     "frame", "ms"),
    ("core.pipeline.self_ms_per_frame", "core.pipeline", "self_s", "frame",
     "ms"),
    ("fleet.population.ms_per_ksession", "fleet.population", "incl_s",
     "ksession", "ms"),
    ("fleet.population.draws_per_session", "fleet.population", "calls",
     "chunk", "count"),
    ("fleet.engine.aggregate_ms_per_ksession", "fleet.engine:add_chunk",
     "incl_s", "ksession", "ms"),
    ("fleet.engine.score_self_ms_per_ksession",
     "fleet.engine:compute_score_stripe", "self_s", "ksession", "ms"),
    ("fleet.cell.ms_per_ksession", "fleet.cell", "incl_s", "ksession", "ms"),
    ("fleet.shard.ms_per_run", "fleet.shard", "incl_s", "run", "ms"),
    ("fleet.surrogate.calibrate_s", "fleet.surrogate", "incl_s", "one", "s"),
)

#: Units of the metrics :func:`layer_metrics` adds beside the catalogue.
DERIVED_UNITS: Dict[str, str] = {
    "core.pipeline.frame_ms_p50": "ms",
    "core.pipeline.frame_ms_p99": "ms",
    "core.mach.match_frac": "ratio",
    "core.writeback.write_ratio": "ratio",
    "memory.controller.bursts_per_frame": "count",
    "memory.controller.row_hit_rate": "ratio",
    "display.drop_frac": "ratio",
    "core.race_to_sleep.degradation_steps": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def units() -> Dict[str, str]:
    """Unit of every per-layer metric."""
    out = {name: unit for name, _key, _field, _per, unit in LAYER_METRICS}
    out.update(DERIVED_UNITS)
    return out


def model_counts(results: Sequence[Any]) -> Dict[str, float]:
    """Exact model statistics summed over ``RunResult`` objects."""
    matched = blocks = 0
    for result in results:
        if result.matches is not None:
            matched += result.matches.intra + result.matches.inter
            blocks += (result.matches.intra + result.matches.inter
                       + result.matches.none)
    written = sum(r.write_bytes for r in results)
    raw = sum(r.raw_write_bytes for r in results)
    bursts = sum(r.mem_stats.bursts for r in results)
    activations = sum(r.mem_stats.activations for r in results)
    frames = sum(r.n_frames for r in results)
    return {
        "core.mach.match_frac": matched / blocks if blocks else 0.0,
        "core.writeback.write_ratio": written / raw if raw else 0.0,
        "memory.controller.bursts_per_frame": bursts / frames if frames else 0.0,
        "memory.controller.row_hit_rate": (1.0 - activations / bursts
                                           if bursts else 0.0),
        "display.drop_frac": (sum(r.drops for r in results) / frames
                              if frames else 0.0),
        "core.race_to_sleep.degradation_steps": float(
            sum(r.degradation_steps for r in results)),
    }


def layer_metrics(spans: Sequence[Sequence], results: Sequence[Any],
                  sessions: int, chunks: int, runs: int,
                  span_cost_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``spans`` are in reference seconds (:func:`tracing.rescale`);
    ``sessions``, ``chunks`` and ``runs`` count the fleet sessions,
    session chunks and repetitions the pass traced; ``results`` are the
    ``RunResult`` objects of one traced root; ``span_cost_s`` is the
    reference seconds a traced call costs more than a bare one.
    """
    rows = tracing.ledger(spans)
    per = {
        "frame": float(sum(1 for s in spans
                           if s[0] == tracing.TARGETS[0].span_name)),
        "ksession": sessions / 1000.0,
        "chunk": float(chunks),
        "run": float(runs),
        "one": 1.0,
    }
    out: Dict[str, float] = {}
    for name, key, field, normaliser, unit in LAYER_METRICS:
        value = float(rows.get(key, {}).get(field, 0.0))
        if unit == "ms":
            value *= 1000.0
        out[name] = value / per[normaliser] if per[normaliser] else 0.0
    gaps = tracing.frame_gaps(spans)
    out["core.pipeline.frame_ms_p50"] = tracing.percentile(gaps, 50) * 1000.0
    out["core.pipeline.frame_ms_p99"] = tracing.percentile(gaps, 99) * 1000.0
    out.update(model_counts(results))
    traced_s = rows["total"]["incl_s"]
    tracer_s = sum(1 for s in spans if s[3] >= 0) * span_cost_s
    out["trace.overhead_frac"] = tracer_s / (traced_s - tracer_s)
    out["trace.coverage"] = rows["total"]["coverage"]
    return out

"""One benchmark worker process.

Run as ``python -m benchmarks.perf.worker '<json arguments>'`` by
:mod:`benchmarks.perf.harness`; prints one JSON object.

Modes:

* ``setup`` — set the workload up, time it, and exit;
* ``measure`` — set up, then repeat the workload's call until
  ``seconds`` have passed (at least ``MIN_REPS`` times), timing a probe
  before every repetition and digesting every result;
* ``trace`` — ``measure``, then one traced pass (see :mod:`.tracing`).

Set-up is timed from the first import of the simulator to ready, and
scaled by the median of three probes run right before it.  numpy is
imported before that clock starts: it is most of a cold import, and no
change to the simulator can make it faster.  In the traced pass every
root span (the re-run set-up, each traced repetition) is likewise
scaled by the probes run right before it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List

#: Fewest timed repetitions a measuring worker makes, however short
#: ``seconds`` is, so that a median exists.
MIN_REPS = 3

#: Traced repetitions in the traced pass; the per-layer metrics sum
#: over them, which evens out a host slow-down during any one.
TRACED_REPS = 3


def timed_rep(call: Callable[[], Any], digest: Callable[[Any], str],
              probe: Callable[[], float]) -> Dict[str, Any]:
    """Probe, then time one call; a raised exception is recorded."""
    probe_s = probe()
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # a failed repetition is counted, not fatal
        return {"wall_s": time.perf_counter() - start, "probe_s": probe_s,
                "error": traceback.format_exc(limit=4)}
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "probe_s": probe_s, "digest": digest(result)}


def _traced_pass(workload: Any, seed: int, rep: Callable[[], Any],
                 ref_probe_s: float) -> Dict[str, Any]:
    """``TRACED_REPS`` traced repetitions (after a traced set-up if the
    workload asks for one), each root scaled by the probe right before it."""
    from repro.fleet.engine import SESSION_CHUNK

    from . import layers, probe, tracing
    from .workloads import digest

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    probes: List[float] = []
    kept_after: List[int] = []

    def root(name: str, call: Callable[[], Any]) -> Any:
        probes.append(probe.probe_median())
        with tracer.span(name):
            out = call()
        kept_after.append(len(tracer.kept))
        return out

    with tracing.installed(tracer):
        if workload.traced_setup:
            rep = root(tracing.SETUP_ROOT, lambda: workload.setup(seed))
        results = [root(tracing.REP_ROOT, rep) for _ in range(TRACED_REPS)]
    restored = tracing.snapshot() == before
    cost_probe_s = probe.probe_median()
    span_cost_s = probe.to_ref(tracing.span_cost_s(), cost_probe_s,
                               ref_probe_s)
    spans = tracing.rescale(tracer.spans,
                            [ref_probe_s / p for p in probes])
    sessions = workload.items if workload.item == "session" else 0
    metrics = layers.layer_metrics(
        spans, tracer.kept[:kept_after[0]], TRACED_REPS * sessions,
        TRACED_REPS * -(-sessions // SESSION_CHUNK), TRACED_REPS, span_cost_s)
    return {"probe_ms": [p * 1000.0 for p in probes],
            "digests": [digest(r) for r in results],
            "restored": restored, "metrics": metrics,
            "ledger": tracing.ledger(spans), "spans": spans}


def run(args: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, then measure and trace as ``args['mode']`` asks."""
    from . import probe
    from .workloads import WORKLOADS, digest, float_canary

    workload = WORKLOADS[args["workload"]]
    setup_probe_s = probe.probe_median()
    started = time.perf_counter()
    rep = workload.setup(args["seed"])
    out: Dict[str, Any] = {"setup_wall_s": time.perf_counter() - started,
                           "setup_probe_s": setup_probe_s}
    if args["mode"] == "setup":
        return out
    out["canary"] = float_canary()
    reps: List[Dict[str, Any]] = []
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < args["seconds"]:
        reps.append(timed_rep(rep, digest, probe.probe_once))
    out["reps"] = reps
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if args["mode"] == "trace":
        out["trace"] = _traced_pass(workload, args["seed"], rep,
                                    args["ref_probe_s"])
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))

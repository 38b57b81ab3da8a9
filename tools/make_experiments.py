"""Regenerate EXPERIMENTS.json and EXPERIMENTS.md: paper vs measured.

Run:  PYTHONPATH=src python tools/make_experiments.py [--frames N]

Plays the paper's run plan, each distinct run once
(``repro.validation.paper_ledger``, about half a minute at the default
120 frames), writes the full-precision ledger to EXPERIMENTS.json at
the repo root, and renders EXPERIMENTS.md from that file alone.  The
checked-in pair is the 120-frame output; regenerating it must leave
both files byte-identical.

The JSON also records ``float_canary``, the host's floating-point
fingerprint from ``benchmarks/perf/workloads.py``.  Full-precision
values can differ in the last bit between CPUs and numpy versions, so
the JSON must match byte for byte only where the fingerprint is the
committed one; elsewhere the 3-decimal markdown is what must match.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.perf.workloads import float_canary  # noqa: E402
from repro.validation import paper_ledger, render  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--frames", type=int, default=120)
    args = parser.parse_args()
    ledger = paper_ledger(
        frames=args.frames,
        progress=lambda name: print(f"{name} ...", file=sys.stderr))
    ledger["float_canary"] = float_canary()
    text = json.dumps(ledger, indent=1) + "\n"
    (ROOT / "EXPERIMENTS.json").write_text(text, encoding="utf-8")
    markdown = render(json.loads(text))
    (ROOT / "EXPERIMENTS.md").write_text(markdown, encoding="utf-8")
    print(f"wrote EXPERIMENTS.json and EXPERIMENTS.md "
          f"({len(markdown.splitlines())} lines)", file=sys.stderr)


if __name__ == "__main__":
    main()

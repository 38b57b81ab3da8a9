"""The repository benchmark: workloads, probe-normalised end-to-end
metrics, and a traced per-layer ledger.  See README.md in this
directory; ``BENCHMARK.json`` at the repository root describes it.
"""

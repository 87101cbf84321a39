"""The repository's benchmark: served workloads over loopback HTTP.

``python3 perfbench/run.py --workload NAME --seed N`` boots the real
``repro serve`` process, drives one workload at it, checks every
answer against references computed here, and prints the end-to-end
metrics; ``--trace 1`` hosts the same server in-process and prints the
per-layer metrics instead.  ``BENCHMARK.json`` at the repository root
declares the workloads and metrics; ``perfbench/README.md`` explains
them.
"""

"""Every metric the benchmark reports, and what each per-layer metric moves.

``BENCHMARK.json`` declares the same names, units, directions and bounds
(``perfbench/tests/test_benchmark_json.py`` keeps the two in step), and
``perfbench/README.md`` defines each metric.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["END_TO_END", "PER_LAYER", "EndToEnd", "PerLayer"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen.
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs the metric should move.
    moves: "tuple[tuple[str, str], ...]"


END_TO_END: "tuple[EndToEnd, ...]" = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("latency_ms", "ms", "lower", 0.25),
    EndToEnd("tail_ms", "ms", "lower", 0.25),
    EndToEnd("throughput_rps", "1/s", "higher", 0.25),
    EndToEnd("rss_peak_mb", "MB", "lower", 0.05),
    EndToEnd("knn_recall", "ratio", "higher", 0.03),
)

PER_LAYER: "tuple[PerLayer, ...]" = (
    PerLayer("protocol.read_ms", "ms", "lower", (("latency_ms", "serve-pool"),)),
    PerLayer("protocol.write_ms", "ms", "lower", (("latency_ms", "serve-pool"),)),
    PerLayer("admission.wait_ms", "ms", "lower", (("throughput_rps", "knn-large"),)),
    PerLayer(
        "admission.shed_frac", "ratio", "lower",
        (("throughput_rps", "serve-pool"),),
    ),
    PerLayer(
        "app.self_ms", "ms", "lower",
        (("latency_ms", "knn-large"), ("latency_ms", "mutate-mix")),
    ),
    PerLayer(
        "app.executor_wait_ms", "ms", "lower",
        (("throughput_rps", "knn-large"),),
    ),
    PerLayer(
        "retry.attempts_per_request", "count", "lower",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer(
        "pool.hop_ms", "ms", "lower",
        (("latency_ms", "serve-pool"), ("latency_ms", "flat-scans")),
    ),
    PerLayer(
        "query.knn_ms", "ms", "lower",
        (("latency_ms", "knn-large"), ("latency_ms", "mutate-mix")),
    ),
    PerLayer("query.rknn_ms", "ms", "lower", (("latency_ms", "flat-scans"),)),
    PerLayer("query.dominating_ms", "ms", "lower", (("latency_ms", "flat-scans"),)),
    PerLayer(
        "knn.answer_per_scanned", "ratio", "higher",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer(
        "knn.dominance_checks_per_query", "count", "lower",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer(
        "index.node_accesses_per_query", "count", "lower",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer("index.scan_ratio", "ratio", "lower", (("latency_ms", "knn-large"),)),
    PerLayer("index.snapshot_load_ms", "ms", "lower", (("setup_s", "knn-large"),)),
    PerLayer(
        "core.hyperbola_calls_per_query", "count", "lower",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer("core.fast_path_ratio", "ratio", "higher", (("latency_ms", "knn-large"),)),
    PerLayer(
        "core.quartic_solves_per_query", "count", "lower",
        (("latency_ms", "knn-large"),),
    ),
    PerLayer(
        "core.batch_calls_per_query", "count", "lower",
        (("latency_ms", "flat-scans"),),
    ),
    PerLayer(
        "core.batch_rows_per_query", "count", "lower",
        (("latency_ms", "flat-scans"),),
    ),
    PerLayer(
        "core.dominance_est_ms", "ms", "lower",
        (("latency_ms", "knn-large"), ("latency_ms", "flat-scans")),
    ),
    PerLayer("index.traversal_est_ms", "ms", "lower", (("latency_ms", "knn-large"),)),
    PerLayer("stream.insert_ms", "ms", "lower", (("latency_ms", "mutate-mix"),)),
    PerLayer("stream.delete_ms", "ms", "lower", (("latency_ms", "mutate-mix"),)),
    PerLayer("wal.append_ms", "ms", "lower", (("latency_ms", "mutate-mix"),)),
    PerLayer("wal.fsync_ms", "ms", "lower", (("latency_ms", "mutate-mix"),)),
    PerLayer(
        "wal.bytes_per_mutation", "bytes", "lower",
        (("latency_ms", "mutate-mix"),),
    ),
    PerLayer(
        "overlay.tombstone_hits_per_query", "count", "lower",
        (("latency_ms", "mutate-mix"),),
    ),
    PerLayer("stream.open_ms", "ms", "lower", (("setup_s", "mutate-mix"),)),
    PerLayer("trace.overhead_frac", "ratio", "lower", (("latency_ms", "knn-large"),)),
    PerLayer("loadgen.lag_p99_ms", "ms", "lower", (("tail_ms", "serve-pool"),)),
)

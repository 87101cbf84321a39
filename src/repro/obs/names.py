"""The central registry of instrumentation names.

Every counter, histogram and trace-span key used by an instrumented
call site lives here, either as an ALL_CAPS constant (static names) or
as a small helper that formats one *family* of names (dynamic names
such as per-stage or per-seam counters).  Two things depend on that:

- the domlint ``metric-name`` rule (:mod:`repro.analysis`) validates
  every metric key it can see at lint time against :func:`is_known`,
  so a typo'd key (``"hyperbola.clls"``) is a lint error instead of a
  silently empty counter;
- :func:`all_static_names` / :data:`PATTERNS` document the complete
  instrumentation surface for dashboards and tests.

Call sites reference this module instead of spelling keys inline::

    from repro.obs import names

    obs.incr(names.HYPERBOLA_CALLS)
    obs.incr(names.verified_stage(stage))

Dynamic families use one placeholder segment per varying component
(``verified.stage.*``); :func:`is_known` matches a dotted name against
the static set first and the patterns second.

>>> is_known("hyperbola.calls")
True
>>> is_known("hyperbola.clls")
False
>>> is_known(verified_stage("float64"))
True
"""

from __future__ import annotations

__all__ = [
    "PATTERNS",
    "all_static_names",
    "is_known",
    # families
    "analysis_rule",
    "batch_calls",
    "bench_span",
    "breaker_transition",
    "dominance_span",
    "experiment_span",
    "fault",
    "knn_span",
    "tenant_outcome",
    "verified_fallback",
    "verified_fallback_failed",
    "verified_stage",
    "verified_stage_failed",
    "verified_stage_undecided",
]

# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
# repro.core.hyperbola — scalar kernel call/fast-path breakdown.
HYPERBOLA_CALLS = "hyperbola.calls"
HYPERBOLA_FAST_PATH_OVERLAP = "hyperbola.fast_path.overlap"
HYPERBOLA_FAST_PATH_CENTER_OUTSIDE = "hyperbola.fast_path.center_outside"
HYPERBOLA_FAST_PATH_POINT_QUERY = "hyperbola.fast_path.point_query"
HYPERBOLA_VERTEX_1D = "hyperbola.vertex_1d"
HYPERBOLA_BISECTOR = "hyperbola.bisector"
HYPERBOLA_QUARTIC = "hyperbola.quartic"
HYPERBOLA_STATIONARY_CANDIDATES = "hyperbola.stationary_candidates"

# repro.core.cascade — filter-and-refine outcome breakdown.
CASCADE_CALLS = "cascade.calls"
CASCADE_OVERLAP_REJECT = "cascade.overlap_reject"
CASCADE_FAST_ACCEPT = "cascade.fast_accept"
CASCADE_FAST_REJECT = "cascade.fast_reject"
CASCADE_FALL_THROUGH = "cascade.fall_through"

# repro.core.batch — vectorised kernel row accounting.
BATCH_CALLS = "batch.calls"
BATCH_HYPERBOLA_ROWS = "batch.hyperbola.rows"
BATCH_HYPERBOLA_OVERLAP_ROWS = "batch.hyperbola.overlap_rows"
BATCH_HYPERBOLA_CENTER_OUTSIDE_ROWS = "batch.hyperbola.center_outside_rows"
BATCH_HYPERBOLA_POINT_QUERY_ROWS = "batch.hyperbola.point_query_rows"
BATCH_HYPERBOLA_BISECTOR_ROWS = "batch.hyperbola.bisector_rows"
BATCH_HYPERBOLA_BOUNDED_ROWS = "batch.hyperbola.bounded_rows"
BATCH_HYPERBOLA_QUARTIC_ROWS = "batch.hyperbola.quartic_rows"

# repro.geometry.quartic — solver selection.
QUARTIC_COMPANION_SOLVES = "quartic.companion_solves"
QUARTIC_CLOSED_FORM_SOLVES = "quartic.closed_form_solves"
QUARTIC_CLOSED_FORM_FALLBACKS = "quartic.closed_form_fallbacks"
QUARTIC_BATCH_SOLVES = "quartic.batch_solves"

# repro.index.instrumentation — uniform index access statistics.
INDEX_NODE_ACCESSES = "index.node_accesses"
INDEX_ENTRIES_SCANNED = "index.entries_scanned"
INDEX_QUERIES = "index.queries"

# repro.queries.knn — traversal statistics.
KNN_QUERIES = "knn.queries"
KNN_NODE_ACCESSES = "knn.node_accesses"
KNN_ENTRIES_CONSIDERED = "knn.entries_considered"
KNN_DOMINANCE_CHECKS = "knn.dominance_checks"
KNN_PRUNED_CASE3 = "knn.pruned_case3"
KNN_UNCERTAIN_DECISIONS = "knn.uncertain_decisions"
KNN_REFERENCE_QUERIES = "knn.reference_queries"
KNN_REFERENCE_DOMINANCE_CHECKS = "knn.reference_dominance_checks"

# repro.queries.rknn — reverse-NN statistics.
RNN_QUERIES = "rnn.queries"
RNN_UNCERTAIN_DECISIONS = "rnn.uncertain_decisions"

# repro.queries.rknn / repro.queries.dominating — pairs and rows the
# bounds settle before the batch kernel (the kernel sees the rest).
FLAT_CENTER_RULED_OUT = "flat.center_ruled_out"
FLAT_MINMAX_RULED_IN = "flat.minmax_ruled_in"
FLAT_ROWS_PRUNED = "flat.rows_pruned"

# repro.robust — escalation-ladder and fallback outcomes.
VERIFIED_UNCERTAIN = "verified.uncertain"
VERIFIED_FALLBACK_NONE = "verified.fallback.none"

# repro.resilience — budget exhaustion and degradation outcomes.
RESILIENCE_DEADLINE_EXCEEDED = "resilience.deadline_exceeded"
RESILIENCE_CANDIDATES_EXHAUSTED = "resilience.candidates_exhausted"
RESILIENCE_ESCALATIONS_DENIED = "resilience.escalations_denied"
RESILIENCE_CLOCK_FAULTS = "resilience.clock_faults"
RESILIENCE_DEGRADED_QUERIES = "resilience.degraded_queries"
RESILIENCE_PARTIAL_QUERIES = "resilience.partial_queries"
RESILIENCE_ABSORBED_FAULTS = "resilience.absorbed_faults"

# repro.bench — standing benchmark observatory.
BENCH_TOPICS = "bench.topics"
BENCH_POINTS = "bench.points"

# repro.queries.explain — per-query EXPLAIN captures.
EXPLAIN_QUERIES = "explain.queries"

# repro.obs.export — metric exporters.
EXPORT_PROMETHEUS_RENDERS = "export.prometheus_renders"
EXPORT_EVENTS_LOGGED = "export.events_logged"

# repro.serve — the fault-tolerant multi-tenant query service.
SERVE_REQUESTS = "serve.requests"
SERVE_RESPONSES_OK = "serve.responses.ok"
SERVE_RESPONSES_DEGRADED = "serve.responses.degraded"
SERVE_RESPONSES_SHED = "serve.responses.shed"
SERVE_RESPONSES_REJECTED = "serve.responses.rejected"
SERVE_RESPONSES_UNAVAILABLE = "serve.responses.unavailable"
SERVE_ADMISSION_ADMITTED = "serve.admission.admitted"
SERVE_ADMISSION_QUEUE_FULL = "serve.admission.queue_full"
SERVE_ADMISSION_RATE_LIMITED = "serve.admission.rate_limited"
SERVE_ADMISSION_CLOCK_FAULTS = "serve.admission.clock_faults"
SERVE_RETRIES = "serve.retries"
SERVE_RETRY_RESCUES = "serve.retry_rescues"
SERVE_HEDGES = "serve.hedges"
SERVE_HANDLER_FAULTS = "serve.handler_faults"
SERVE_PROTOCOL_ERRORS = "serve.protocol_errors"
SERVE_QUARANTINED_INDEXES = "serve.quarantined_indexes"
SERVE_BREAKER_SHORT_CIRCUITS = "serve.breaker_short_circuits"

# repro.stream.wal — write-ahead-log durability outcomes.
WAL_APPENDS = "wal.appends"
WAL_FSYNCS = "wal.fsyncs"
WAL_ROTATIONS = "wal.rotations"
WAL_REPLAYED_RECORDS = "wal.replayed_records"
WAL_TRUNCATED_FRAMES = "wal.truncated_frames"
WAL_CORRUPTIONS = "wal.corruptions"
WAL_TRUNCATIONS = "wal.truncations"

# repro.stream — the durable mutation pipeline over immutable snapshots.
STREAM_INSERTS = "stream.inserts"
STREAM_DELETES = "stream.deletes"
STREAM_MUTATIONS_ACKED = "stream.mutations_acked"
STREAM_REPLAYS = "stream.replays"
STREAM_MERGED_QUERIES = "stream.merged_queries"
STREAM_TOMBSTONE_HITS = "stream.tombstone_hits"

# repro.stream.compact — checkpoint/compaction cycle outcomes.
COMPACT_RUNS = "compact.runs"
COMPACT_FAILURES = "compact.failures"
COMPACT_FOLDED_ENTRIES = "compact.folded_entries"
COMPACT_DROPPED_TOMBSTONES = "compact.dropped_tombstones"

# repro.serve — the streaming-mutation endpoint.
SERVE_MUTATIONS = "serve.mutations"
SERVE_MUTATIONS_ACKED = "serve.mutations.acked"
SERVE_MUTATIONS_REJECTED = "serve.mutations.rejected"

# repro.serve.supervisor — the multi-process worker pool.
SERVE_WORKERS_SPAWNED = "serve.workers.spawned"
SERVE_WORKERS_EXITS = "serve.workers.exits"
SERVE_WORKERS_RESPAWNS = "serve.workers.respawns"
SERVE_WORKERS_SPAWN_FAILURES = "serve.workers.spawn_failures"
SERVE_WORKERS_HEARTBEAT_MISSES = "serve.workers.heartbeat_misses"
SERVE_WORKERS_KILLS = "serve.workers.kills"
SERVE_WORKERS_FAILOVERS = "serve.workers.failovers"
SERVE_WORKERS_FLAP_CAPPED = "serve.workers.flap_capped"
SERVE_WORKERS_QUORUM_LOST = "serve.workers.quorum_lost"
SERVE_WORKERS_DRAINED = "serve.workers.drained"
SERVE_WORKERS_DRAIN_TIMEOUTS = "serve.workers.drain_timeouts"
SERVE_WORKERS_MUTATIONS_REACKED = "serve.workers.mutations_reacked"
SERVE_WORKERS_MUTATIONS_RESENT = "serve.workers.mutations_resent"

# repro.index.snapshot — crash-safe persistence outcomes.
SNAPSHOT_SAVES = "snapshot.saves"
SNAPSHOT_LOADS = "snapshot.loads"
SNAPSHOT_VERIFIES = "snapshot.verifies"
SNAPSHOT_CORRUPTIONS = "snapshot.corruptions"
SNAPSHOT_PAGES_WRITTEN = "snapshot.pages_written"
SNAPSHOT_PAGES_READ = "snapshot.pages_read"

# repro.analysis — domlint engine runs (lint-as-telemetry).
ANALYSIS_RUNS = "analysis.runs"
ANALYSIS_FILES = "analysis.files"
ANALYSIS_RULE_EVALUATIONS = "analysis.rule_evaluations"
ANALYSIS_FINDINGS = "analysis.findings"
ANALYSIS_SUPPRESSED = "analysis.suppressed"
ANALYSIS_BASELINED = "analysis.baselined"
ANALYSIS_PARSE_ERRORS = "analysis.parse_errors"

# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
QUARTIC_BATCH_ROWS = "quartic.batch_rows"
BATCH_WORKLOAD_ROWS = "batch.workload_rows"
KNN_ANSWER_SIZE = "knn.answer_size"
SNAPSHOT_BYTES = "snapshot.bytes"
SERVE_LATENCY_S = "serve.latency_s"
SERVE_QUEUE_DEPTH = "serve.queue_depth"
WAL_RECORD_BYTES = "wal.record_bytes"
STREAM_OVERLAY_SIZE = "stream.overlay_size"
STREAM_MUTATE_LATENCY_S = "stream.mutate_latency_s"

# ----------------------------------------------------------------------
# Trace spans (timers)
# ----------------------------------------------------------------------
STATS_LINT = "stats.lint"
STATS_SCALAR = "stats.scalar"
STATS_BATCH = "stats.batch"
STATS_KNN = "stats.knn"
STATS_VERIFIED = "stats.verified"
STATS_FAULTS = "stats.faults"
DOMINANCE_WORKLOAD = "dominance.workload"
KNN_BUILD_INDEX = "knn.build_index"
KNN_REFERENCE = "knn.reference"
SNAPSHOT_SAVE_SPAN = "snapshot.save"
SNAPSHOT_LOAD_SPAN = "snapshot.load"
SNAPSHOT_VERIFY_SPAN = "snapshot.verify"
WAL_REPLAY_SPAN = "wal.replay"
STREAM_OPEN_SPAN = "stream.open"
COMPACT_RUN_SPAN = "compact.run"

#: Dynamic name families: one ``*`` per varying dotted segment.
PATTERNS: "tuple[str, ...]" = (
    "analysis.rule.*",  # per-rule finding counters (rule name segment)
    "batch.calls.*",  # per-criterion batch evaluations
    "bench.topic.*",  # per-topic benchmark spans
    "dominance.*",  # per-criterion dominance-experiment spans
    "knn.*.*",  # per-(strategy, criterion) kNN-experiment spans
    "verified.stage.*",  # ladder stage attempts
    "verified.stage.*.undecided",
    "verified.stage.*.failed",
    "verified.fallback.*",  # conservative fallback outcomes
    "verified.fallback.*.failed",
    "faults.*.*",  # injected-fault activations per (seam, mode)
    "serve.breaker.*.*",  # breaker transitions per (index, state)
    "serve.tenant.*.*",  # per-(tenant-class, outcome) request counters
)


def analysis_rule(rule: str) -> str:
    """Per-rule lint finding counter (``analysis.rule.<rule-name>``)."""
    return f"analysis.rule.{rule}"


def batch_calls(criterion: str) -> str:
    """Per-criterion batch-evaluation counter (``batch.calls.<name>``)."""
    return f"batch.calls.{criterion}"


def bench_span(topic: str) -> str:
    """Per-topic benchmark-run span (``bench.topic.<topic>``)."""
    return f"bench.topic.{topic}"


def verified_stage(stage: str) -> str:
    """Ladder-stage attempt counter (``verified.stage.<stage>``)."""
    return f"verified.stage.{stage}"


def verified_stage_undecided(stage: str) -> str:
    """Stage came back with a margin inside its own error bound."""
    return f"verified.stage.{stage}.undecided"


def verified_stage_failed(stage: str) -> str:
    """Stage raised one of the recognised numeric failures."""
    return f"verified.stage.{stage}.failed"


def verified_fallback(criterion: str) -> str:
    """Conservative fallback answered (``verified.fallback.<name>``)."""
    return f"verified.fallback.{criterion}"


def verified_fallback_failed(criterion: str) -> str:
    """Conservative fallback itself failed (exception swallowed)."""
    return f"verified.fallback.{criterion}.failed"


def fault(seam: str, mode: str) -> str:
    """Injected-fault activation counter (``faults.<seam>.<mode>``)."""
    return f"faults.{seam}.{mode}"


def breaker_transition(index: str, state: str) -> str:
    """Circuit-breaker transition counter (``serve.breaker.<index>.<state>``)."""
    return f"serve.breaker.{index}.{state}"


def tenant_outcome(tenant_class: str, outcome: str) -> str:
    """Per-tenant-class outcome counter (``serve.tenant.<class>.<outcome>``)."""
    return f"serve.tenant.{tenant_class}.{outcome}"


def dominance_span(criterion: str) -> str:
    """Dominance-experiment per-criterion span (``dominance.<name>``)."""
    return f"dominance.{criterion}"


def knn_span(strategy: str, criterion: str) -> str:
    """kNN-experiment span (``knn.<strategy>.<criterion>``)."""
    return f"knn.{strategy}.{criterion}"


def experiment_span(experiment: str) -> str:
    """Top-level span for one experiment run (the experiment id itself).

    Experiment ids are registered at runtime by
    :mod:`repro.experiments.runner`; routing them through this helper
    keeps the call site visibly inside the name registry without this
    module importing the experiment table (which would be an import
    cycle: experiments use :mod:`repro.obs`).
    """
    return experiment


def all_static_names() -> "frozenset[str]":
    """Every registered static (non-family) instrumentation name."""
    return _STATIC_NAMES


def _segments_match(name: "tuple[str, ...]", pattern: "tuple[str, ...]") -> bool:
    return len(name) == len(pattern) and all(
        p == "*" or p == n for n, p in zip(name, pattern)
    )


def is_known(name: str) -> bool:
    """Whether *name* is a registered static name or matches a family.

    A lint-time probe may hand in a *pattern* itself (an f-string whose
    formatted fields were replaced by ``*``); those match when they
    align with a registered family segment-for-segment.
    """
    if name in _STATIC_NAMES:
        return True
    parts = tuple(name.split("."))
    return any(_segments_match(parts, tuple(p.split("."))) for p in _PATTERN_PARTS)


_STATIC_NAMES: "frozenset[str]" = frozenset(
    value
    for key, value in globals().items()
    if key.isupper() and key != "PATTERNS" and isinstance(value, str)
)
_PATTERN_PARTS: "tuple[str, ...]" = PATTERNS

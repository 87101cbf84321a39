"""Per-query EXPLAIN: where one query's time and pruning power went.

The paper's evaluation (Section 7.2) reasons about queries through
their internals — node accesses, how often the cheap MinMax bounds
decide a pair versus the exact Hyperbola solve, how much Case-3
pruning bites.  The instrumentation seams built for that analysis
already tally every such event; this module captures them *per query*
and structures the result as a :class:`QueryExplain`:

- per-level node accesses of the index traversal;
- per-tier cascade outcomes (overlap reject → MinMax fast accept /
  fast reject → Hyperbola fall-through) and the Hyperbola fast-path /
  quartic breakdown behind the fall-throughs;
- certified-ladder escalations (``verified.stage.*``) when the
  verified criterion is in play;
- for the flat scans, the pairs and rows their bounds settle before
  the batch kernel (``flat.*``);
- pruning effectiveness and answer statistics;
- budget consumption and the achieved guarantee tier when a
  :class:`repro.resilience.Budget` is active.

Activation is per call — ``knn_query(..., explain=True)`` — and costs
nothing when off: the query functions take a single ``if explain:``
branch, the same discipline as ``if obs.ENABLED:`` call sites.  When
on, the query runs under a private enabled obs scope
(:func:`repro.obs.scope`), so the captured counters are exactly this
query's delta and the ambient registry is untouched.

Determinism: everything in :meth:`QueryExplain.signature` is a pure
function of the query inputs, so two identical seeded queries produce
identical signatures (asserted by the test suite).  Wall-clock duration
lives outside the signature.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import obs
from repro.obs import names
from repro.resilience.budget import current as current_budget

__all__ = ["QueryExplain", "ExplainedResult", "explain_capture"]

#: Traversal-stat fields lifted off a query result, in display order.
_TRAVERSAL_FIELDS = (
    "nodes_visited",
    "entries_considered",
    "dominance_checks",
    "pruned_case3",
    "uncertain_decisions",
    "absorbed_faults",
    "degraded_checks",
)

_CASCADE_KEYS = {
    names.CASCADE_CALLS: "calls",
    names.CASCADE_OVERLAP_REJECT: "overlap_reject",
    names.CASCADE_FAST_ACCEPT: "minmax_fast_accept",
    names.CASCADE_FAST_REJECT: "minmax_fast_reject",
    names.CASCADE_FALL_THROUGH: "hyperbola_fall_through",
}

_HYPERBOLA_KEYS = {
    names.HYPERBOLA_CALLS: "calls",
    names.HYPERBOLA_FAST_PATH_OVERLAP: "fast_path_overlap",
    names.HYPERBOLA_FAST_PATH_CENTER_OUTSIDE: "fast_path_center_outside",
    names.HYPERBOLA_FAST_PATH_POINT_QUERY: "fast_path_point_query",
    names.HYPERBOLA_VERTEX_1D: "vertex_1d",
    names.HYPERBOLA_BISECTOR: "bisector",
    names.HYPERBOLA_QUARTIC: "quartic",
    # Batch-kernel rows fold into the same labels, summed with the scalar
    # calls: a flat scan decides its pairs in blocks, one row per pair.
    names.BATCH_HYPERBOLA_ROWS: "calls",
    names.BATCH_HYPERBOLA_OVERLAP_ROWS: "fast_path_overlap",
    names.BATCH_HYPERBOLA_CENTER_OUTSIDE_ROWS: "fast_path_center_outside",
    names.BATCH_HYPERBOLA_POINT_QUERY_ROWS: "fast_path_point_query",
    names.BATCH_HYPERBOLA_BISECTOR_ROWS: "bisector",
    # Curved rows the closed-form dmin bracket settles without a quartic.
    names.BATCH_HYPERBOLA_BOUNDED_ROWS: "bounded",
    names.BATCH_HYPERBOLA_QUARTIC_ROWS: "quartic",
}

#: Flat-scan work the bounds settle, so the kernel never sees it.
_BOUND_KEYS = {
    names.FLAT_CENTER_RULED_OUT: "center_ruled_out",
    names.FLAT_MINMAX_RULED_IN: "minmax_ruled_in",
    names.FLAT_ROWS_PRUNED: "rows_pruned",
}


@dataclass
class QueryExplain:
    """The structured execution breakdown of one query."""

    #: Query kind: ``"knn"``, ``"rknn"`` or ``"dominating"``.
    kind: str
    #: Identifying parameters (k, criterion, index, overlay size, ...).
    params: "dict[str, Any]"
    #: Number of keys/scores in the answer.
    answer_size: int
    #: Index nodes visited per tree level (empty for flat scans).
    nodes_by_level: "dict[int, int]"
    #: Traversal statistics (nodes, entries, checks, prunes, ...).
    traversal: "dict[str, int]"
    #: Per-tier cascade outcomes (MinMax accepts/rejects, fall-throughs).
    cascade: "dict[str, int]"
    #: Hyperbola fast-path / slow-path breakdown behind fall-throughs:
    #: scalar calls plus batch-kernel rows, summed per label.
    hyperbola: "dict[str, int]"
    #: Flat scans: pairs the center bound ruled out, pairs MinMax ruled
    #: in, and top-k rows the score bounds pruned, none of which reach
    #: the kernel (empty for kNN).
    bounds: "dict[str, int]"
    #: Certified-ladder stage attempts (``verified.stage.<stage>`` keys).
    ladder: "dict[str, int]"
    #: Budget consumption and degradation outcome (None when unbudgeted).
    budget: "dict[str, Any] | None"
    #: Every obs counter this query incremented (the full delta).
    counters: "dict[str, int]"
    #: Wall-clock duration; NOT part of :meth:`signature`.
    duration_s: float = 0.0
    #: kNN pruning anchor distance, when the query reports one.
    distk: "float | None" = None

    @property
    def pruning_effectiveness(self) -> float:
        """Fraction of candidate decisions settled by Case-3 pruning."""
        pruned = self.traversal.get("pruned_case3", 0)
        considered = self.traversal.get("entries_considered", 0) + pruned
        return pruned / considered if considered else 0.0

    def signature(self) -> "dict[str, Any]":
        """The deterministic part: identical for identical seeded runs."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "answer_size": self.answer_size,
            "distk": self.distk,
            "nodes_by_level": {
                str(level): count
                for level, count in sorted(self.nodes_by_level.items())
            },
            "traversal": dict(self.traversal),
            "cascade": dict(self.cascade),
            "hyperbola": dict(self.hyperbola),
            "bounds": dict(self.bounds),
            "ladder": dict(self.ladder),
            "budget": dict(self.budget) if self.budget is not None else None,
            "counters": dict(self.counters),
        }

    def to_dict(self) -> "dict[str, Any]":
        """JSON-friendly full form (signature plus timing)."""
        payload = self.signature()
        payload["duration_s"] = self.duration_s
        payload["pruning_effectiveness"] = self.pruning_effectiveness
        return payload

    def render(self) -> str:
        """A human-readable text tree of the breakdown."""
        params = ", ".join(
            f"{key}={value}" for key, value in sorted(self.params.items())
        )
        lines = [f"{self.kind.upper()} explain ({params})"]

        answer = f"answer: {self.answer_size} object(s)"
        if self.distk is not None:
            answer += f", distk={self.distk:.6g}"
        lines.append(f"├─ {answer}")

        nodes = self.traversal.get("nodes_visited", 0)
        entries = self.traversal.get("entries_considered", 0)
        if self.nodes_by_level:
            levels = ", ".join(
                f"L{level}:{count}"
                for level, count in sorted(self.nodes_by_level.items())
            )
            lines.append(
                f"├─ traversal: {nodes} node(s) [{levels}], "
                f"{entries} entries considered"
            )
        else:
            lines.append(
                f"├─ traversal: flat scan, {entries} entries considered"
            )
        pruned = self.traversal.get("pruned_case3", 0)
        lines.append(
            f"│  └─ pruning: {pruned} Case-3 prune(s) "
            f"({100.0 * self.pruning_effectiveness:.1f}% of decisions)"
        )

        if self.cascade.get("calls"):
            lines.append(f"├─ cascade: {self.cascade['calls']} call(s)")
            tiers = [
                (label, self.cascade[key])
                for key, label in (
                    ("overlap_reject", "overlap reject"),
                    ("minmax_fast_accept", "MinMax fast-accept"),
                    ("minmax_fast_reject", "MinMax fast-reject"),
                    ("hyperbola_fall_through", "Hyperbola fall-through"),
                )
                if self.cascade.get(key)
            ]
            for i, (label, count) in enumerate(tiers):
                branch = "└─" if i == len(tiers) - 1 else "├─"
                lines.append(f"│  {branch} {label}: {count}")
        if self.hyperbola.get("calls"):
            fast = sum(
                self.hyperbola.get(key, 0)
                for key in (
                    "fast_path_overlap",
                    "fast_path_center_outside",
                    "fast_path_point_query",
                )
            )
            lines.append(
                f"├─ hyperbola: {self.hyperbola['calls']} call(s) — "
                f"{fast} fast-path, "
                f"{self.hyperbola.get('bisector', 0)} bisector, "
                f"{self.hyperbola.get('quartic', 0)} quartic"
            )
        if self.bounds:
            lines.append(
                f"├─ bounds: {self.bounds.get('center_ruled_out', 0)} pair(s) "
                f"ruled out by the center test, "
                f"{self.bounds.get('minmax_ruled_in', 0)} ruled in by MinMax, "
                f"{self.bounds.get('rows_pruned', 0)} row(s) pruned"
            )
        if self.ladder:
            stages = ", ".join(
                f"{stage.rsplit('.', 1)[-1]}:{count}"
                for stage, count in sorted(self.ladder.items())
            )
            lines.append(f"├─ certified ladder: {stages}")
        uncertain = self.traversal.get("uncertain_decisions", 0)
        absorbed = self.traversal.get("absorbed_faults", 0)
        if uncertain or absorbed:
            lines.append(
                f"├─ resilience: {uncertain} uncertain decision(s), "
                f"{absorbed} absorbed fault(s)"
            )

        if self.budget is not None:
            reason = self.budget.get("exhausted")
            state = (
                "complete"
                if self.budget.get("complete", True)
                else f"PARTIAL ({reason})"
            )
            lines.append(
                f"└─ budget: {self.budget.get('candidates_charged', 0)} "
                f"candidate(s), "
                f"{self.budget.get('escalations_charged', 0)} escalation(s), "
                f"tier={self.budget.get('tier', 'optimal')}, {state}"
            )
        else:
            lines.append("└─ budget: none (unbudgeted execution)")
        return "\n".join(lines)


class ExplainedResult:
    """A query answer bundled with its :class:`QueryExplain`.

    Attribute access, iteration, length and membership forward to the
    wrapped ``result`` (mirroring
    :class:`~repro.resilience.PartialResult`), so explained call sites
    keep working against the raw answer.
    """

    __slots__ = ("result", "explain")

    def __init__(self, result: Any, explain: QueryExplain) -> None:
        self.result = result
        self.explain = explain

    def __getattr__(self, name: str) -> Any:
        return getattr(self.result, name)

    def __iter__(self) -> "Iterator[Any]":
        return iter(self.result)

    def __len__(self) -> int:
        return len(self.result)

    def __contains__(self, item: Any) -> bool:
        return item in self.result

    def __repr__(self) -> str:
        return (
            f"ExplainedResult(result={self.result!r}, "
            f"explain=<{self.explain.kind} "
            f"{self.explain.answer_size} answer(s)>)"
        )


class _ExplainCollector:
    """Mutable state one explained query writes into while running."""

    __slots__ = ("levels", "registry", "started")

    def __init__(self, registry: obs.MetricsRegistry) -> None:
        #: Per-level node-access tally, filled by the traversal.
        self.levels: "dict[int, int]" = {}
        self.registry = registry
        self.started = time.perf_counter()

    def finish(
        self, kind: str, params: "dict[str, Any]", outcome: Any
    ) -> QueryExplain:
        """Assemble the :class:`QueryExplain` from everything captured."""
        duration = time.perf_counter() - self.started
        snapshot = self.registry.collect()
        counters: "dict[str, int]" = dict(snapshot.get("counters", {}))

        traversal: "dict[str, int]" = {}
        for field_name in _TRAVERSAL_FIELDS:
            value = getattr(outcome, field_name, None)
            if isinstance(value, int):
                traversal[field_name] = value

        cascade = {
            label: counters[key]
            for key, label in _CASCADE_KEYS.items()
            if key in counters
        }
        hyperbola: "dict[str, int]" = {}
        for key, label in _HYPERBOLA_KEYS.items():
            if key in counters:
                hyperbola[label] = hyperbola.get(label, 0) + counters[key]
        bounds = {
            label: counters[key]
            for key, label in _BOUND_KEYS.items()
            if key in counters
        }
        ladder = {
            key: value
            for key, value in counters.items()
            if key.startswith("verified.stage.")
        }

        budget_info: "dict[str, Any] | None" = None
        budget = current_budget()
        report = getattr(outcome, "report", None)
        if budget is not None or report is not None:
            budget_info = {
                "complete": True,
                "tier": "optimal",
                "exhausted": None,
                "candidates_charged": 0,
                "escalations_charged": 0,
            }
            if budget is not None:
                budget_info["candidates_charged"] = budget.candidates_charged
                budget_info["escalations_charged"] = budget.escalations_charged
                budget_info["exhausted"] = budget.exhausted()
            if report is not None:
                budget_info["complete"] = bool(report.complete)
                budget_info["tier"] = report.tier.value
                if report.exhausted is not None:
                    budget_info["exhausted"] = report.exhausted

        distk = getattr(outcome, "distk", None)
        if distk is not None:
            distk = None if distk != distk or distk == float("inf") else float(distk)

        try:
            answer_size = len(outcome)
        except TypeError:
            answer_size = 0

        return QueryExplain(
            kind=kind,
            params=params,
            answer_size=answer_size,
            nodes_by_level=dict(self.levels),
            traversal=traversal,
            cascade=cascade,
            hyperbola=hyperbola,
            bounds=bounds,
            ladder=ladder,
            budget=budget_info,
            counters=counters,
            duration_s=duration,
            distk=distk,
        )


@contextmanager
def explain_capture() -> "Iterator[_ExplainCollector]":
    """Run one query under a private, enabled obs scope and collect.

    Yields the :class:`_ExplainCollector` whose ``levels`` dict the
    traversal fills in; call :meth:`_ExplainCollector.finish` after the
    query returns to build the :class:`QueryExplain`.  The ambient
    registry and the global enabled flag are restored on exit, so
    explaining a query never perturbs surrounding instrumentation.
    """
    registry = obs.MetricsRegistry()
    with obs.enabled_scope(True), obs.scope(registry):
        collector = _ExplainCollector(registry)
        obs.incr(names.EXPLAIN_QUERIES)
        yield collector

"""The dominance-operator experiments (Section 7.1, Figures 8–12).

Each measurement follows the paper's protocol: build a workload of
random ``(Sa, Sb, Sq)`` triples from the dataset, run every criterion
over the whole workload several times, average the per-query execution
time, and score precision/recall against Hyperbola's answers (the paper
uses Hyperbola as ground truth because it is the only criterion that is
both correct and sound; the test suite independently validates it
against the numerical oracle).

Two timing modes are supported:

- ``"scalar"`` (default) — one Python call per triple, the closest
  analogue of the paper's per-operator measurements (Hyperbola solves
  the paper's Equation (14) quartic, see
  :mod:`repro.experiments.quartic`);
- ``"batch"`` — the vectorised kernels from :mod:`repro.core.batch`,
  used by the batch-vs-scalar ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.obs import names
from repro.core.batch import batch_evaluate
from repro.data.synthetic import Dataset
from repro.data.workload import DominanceWorkload
from repro.exceptions import ExperimentError
from repro.experiments.config import DOMINANCE_CRITERIA
from repro.experiments.metrics import binary_metrics, time_callable_stats
from repro.experiments.quartic import paper_criterion
from repro.obs.log import get_logger

log = get_logger("experiments.dominance")

__all__ = ["DominanceMeasurement", "run_dominance_experiment"]

GROUND_TRUTH_CRITERION = "hyperbola"


@dataclass(frozen=True)
class DominanceMeasurement:
    """One (configuration, criterion) cell of a Figure 8–12 series."""

    label: str
    criterion: str
    seconds_per_query: float
    seconds_std: float
    precision: float
    recall: float
    workload_size: int
    # Per-criterion instrumentation deltas (None unless obs is enabled).
    stats: "dict | None" = None

    def row(self) -> tuple:
        """The cell as a report-table row."""
        return (
            self.label,
            self.criterion,
            self.seconds_per_query,
            self.precision,
            self.recall,
        )


def run_dominance_experiment(
    dataset: Dataset,
    *,
    label: str,
    workload_size: int = 10_000,
    repeats: int = 10,
    criteria: tuple[str, ...] = DOMINANCE_CRITERIA,
    timing: str = "scalar",
    seed: int | None = 0,
) -> list[DominanceMeasurement]:
    """Measure every criterion on one dataset configuration.

    Returns one :class:`DominanceMeasurement` per criterion, in the
    order given.  *label* names the configuration (the x-axis value of
    the figure this measurement belongs to).
    """
    if timing not in ("scalar", "batch"):
        raise ExperimentError(f"unknown timing mode {timing!r}")
    log.debug(
        "dominance experiment %s: workload=%d repeats=%d timing=%s",
        label, workload_size, repeats, timing,
    )
    with obs.trace(names.DOMINANCE_WORKLOAD):
        workload = DominanceWorkload.from_dataset(
            dataset, size=workload_size, seed=seed
        )
    truth = batch_evaluate(GROUND_TRUTH_CRITERION, *workload.arrays())

    measurements = []
    for name in criteria:
        before = obs.collect() if obs.ENABLED else None
        with obs.trace(names.dominance_span(name)):
            if timing == "scalar":
                criterion = paper_criterion(name)
                triples = list(workload.triples())

                def run_workload() -> None:
                    for sa, sb, sq in triples:
                        criterion.dominates(sa, sb, sq)

                stats = time_callable_stats(
                    run_workload, repeats, calls_per_sample=len(workload)
                )
                predicted = batch_evaluate(name, *workload.arrays())
            else:
                arrays = workload.arrays()

                def run_workload() -> None:
                    batch_evaluate(name, *arrays)

                stats = time_callable_stats(
                    run_workload, repeats, calls_per_sample=len(workload)
                )
                predicted = batch_evaluate(name, *workload.arrays())

        delta = (
            obs.diff(before, obs.collect()) if before is not None else None
        )
        scores = binary_metrics(predicted, truth)
        log.debug(
            "  %-14s %s: %.3es/query precision=%.1f%% recall=%.1f%%",
            name, label, stats.per_call_mean, scores.precision, scores.recall,
        )
        measurements.append(
            DominanceMeasurement(
                label=label,
                criterion=name,
                seconds_per_query=stats.per_call_mean,
                seconds_std=stats.per_call_std,
                precision=scores.precision,
                recall=scores.recall,
                workload_size=len(workload),
                stats=delta,
            )
        )
    return measurements

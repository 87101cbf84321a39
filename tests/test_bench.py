"""Tests for the standing benchmark observatory (:mod:`repro.bench`).

Runs tiny ad-hoc parameter points through the runner (schema contract:
git SHA, environment fingerprint, exact percentiles, obs counter
deltas), exercises the compare gate with an injected regression, and
drives the ``repro bench`` CLI end to end on the smallest topic.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_documents, compare_runs
from repro.bench.runner import (
    BenchDocument,
    read_document,
    run_topic,
    write_document,
)
from repro.bench.topics import TOPICS, topic_points
from repro.cli import main as cli_main

#: Small enough for the test suite, real enough to exercise every path.
_TINY = {
    "build": [{"n": 60, "d": 3, "radius": "gaussian"}],
    "knn": [
        {
            "n": 60,
            "d": 3,
            "radius": "gaussian",
            "k": 3,
            "queries": 2,
            "strategy": "hs",
            "criterion": "hyperbola",
        }
    ],
    "rknn": [
        {"n": 40, "d": 3, "radius": "gaussian", "queries": 2,
         "criterion": "hyperbola"}
    ],
    "dominating": [
        {"n": 40, "d": 3, "radius": "gaussian", "k": 2, "queries": 2,
         "criterion": "hyperbola"}
    ],
    # Single-process phase only: the supervised phase boots real worker
    # processes and is covered by tests/test_serve_procs_chaos.py.
    "serve": [
        {"n": 40, "d": 3, "radius": "gaussian", "phase": "single",
         "requests": 3, "k": 3}
    ],
}


class TestTopics:
    def test_registry_names_the_required_topics(self):
        assert {
            "build", "knn", "rknn", "dominating", "stream", "serve"
        } <= set(TOPICS)

    def test_quick_points_are_a_subset_of_full(self):
        for topic in TOPICS:
            quick = topic_points(topic, quick=True)
            full = topic_points(topic, quick=False)
            for point in quick:
                assert point in full

    def test_points_are_copies(self):
        first = topic_points("build", quick=True)
        first[0]["n"] = -1
        assert topic_points("build", quick=True)[0]["n"] != -1


class TestRunner:
    @pytest.mark.parametrize("topic", sorted(_TINY))
    def test_document_schema(self, topic):
        document = run_topic(
            topic, _TINY[topic], quick=True, repeats=2, seed=0
        )
        assert document.topic == topic
        assert document.git_sha
        assert document.timestamp
        assert document.env["python"]
        assert document.env["numpy"]
        assert len(document.points) == 1
        point = document.points[0]
        assert point["params"] == _TINY[topic][0]
        latency = point["latency_s"]
        for key in ("median", "p50", "p95", "p99", "mean", "min", "max"):
            assert latency[key] >= 0.0
        assert latency["min"] <= latency["p50"] <= latency["max"]
        assert point["throughput_ops"] > 0.0
        assert isinstance(point["counters"], dict)

    def test_counter_deltas_capture_query_work(self):
        document = run_topic("knn", _TINY["knn"], quick=True, repeats=1)
        counters = document.points[0]["counters"]
        assert counters.get("knn.queries") == 2
        assert counters.get("knn.node_accesses", 0) > 0

    def test_round_trip_through_disk(self, tmp_path):
        document = run_topic("build", _TINY["build"], quick=True, repeats=1)
        path = write_document(document, str(tmp_path))
        assert path.endswith("BENCH_build.json")
        loaded = read_document(path)
        assert loaded.to_dict() == document.to_dict()


def _fake_document(
    topic: str, p50: float, counters: "dict[str, int] | None" = None
) -> BenchDocument:
    return BenchDocument(
        topic=topic,
        git_sha="deadbeef",
        timestamp="2026-01-01T00:00:00+00:00",
        quick=True,
        repeats=1,
        seed=0,
        env={},
        points=[
            {
                "params": {"n": 100, "d": 3},
                "samples": 3,
                "latency_s": {
                    "median": p50,
                    "p50": p50,
                    "p95": p50 * 1.5,
                    "p99": p50 * 2.0,
                    "mean": p50,
                    "min": p50 * 0.8,
                    "max": p50 * 2.0,
                },
                "throughput_ops": 1.0 / p50,
                "counters": dict(counters or {}),
            }
        ],
    )


class TestCompare:
    def test_identical_documents_pass(self):
        baseline = _fake_document("knn", 0.010)
        comparison = compare_documents(baseline, baseline, threshold=0.25)
        assert comparison.ok
        assert comparison.matched == 1

    def test_injected_regression_detected(self):
        baseline = _fake_document("knn", 0.010)
        current = _fake_document("knn", 0.020)  # +100% > +25%
        comparison = compare_documents(baseline, current, threshold=0.25)
        assert not comparison.ok
        regression = comparison.regressions[0]
        assert regression.ratio == pytest.approx(2.0)
        assert "knn" in regression.describe()

    def test_growth_under_threshold_passes(self):
        baseline = _fake_document("knn", 0.010)
        current = _fake_document("knn", 0.0115)  # +15% < +25%
        assert compare_documents(baseline, current, threshold=0.25).ok

    def test_unmatched_points_reported_not_failed(self):
        baseline = _fake_document("knn", 0.010)
        current = _fake_document("knn", 0.010)
        current.points[0]["params"] = {"n": 999, "d": 3}
        comparison = compare_documents(baseline, current, threshold=0.25)
        assert comparison.ok  # unmatched points are not regressions
        assert comparison.matched == 0
        assert comparison.missing_current == [{"n": 100, "d": 3}]
        assert comparison.missing_baseline == [{"n": 999, "d": 3}]

    def test_compare_runs_over_directories(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        current_dir = tmp_path / "current"
        write_document(_fake_document("knn", 0.010), str(baseline_dir))
        write_document(_fake_document("knn", 0.030), str(current_dir))
        comparisons = compare_runs(
            str(baseline_dir),
            str(current_dir),
            topics=["knn"],
            threshold=0.25,
        )
        assert len(comparisons) == 1
        assert not comparisons[0].ok


class TestWorkCounterGate:
    WORK = {"batch.hyperbola.rows": 2955, "batch.hyperbola.quartic_rows": 941}

    def test_identical_counters_pass(self):
        baseline = _fake_document("dominating", 0.010, self.WORK)
        comparison = compare_documents(baseline, baseline, threshold=0.25)
        assert comparison.ok
        assert comparison.work_increases == []
        assert comparison.unmatched_counters == []

    def test_one_more_kernel_row_fails(self):
        baseline = _fake_document("dominating", 0.010, self.WORK)
        grown = dict(self.WORK, **{"batch.hyperbola.rows": 2956})
        # Faster, but more work: the exact gate fails where timing passes.
        current = _fake_document("dominating", 0.005, grown)
        comparison = compare_documents(baseline, current, threshold=0.25)
        assert not comparison.ok
        assert comparison.regressions == []
        [increase] = comparison.work_increases
        assert (increase.counter, increase.baseline, increase.current) == (
            "batch.hyperbola.rows", 2955, 2956
        )
        assert "+1" in increase.describe()

    def test_less_work_passes(self):
        baseline = _fake_document("dominating", 0.010, self.WORK)
        current = _fake_document(
            "dominating", 0.010, {key: 0 for key in self.WORK}
        )
        assert compare_documents(baseline, current, threshold=0.25).ok

    def test_counter_on_one_side_is_reported_not_failed(self):
        baseline = _fake_document("dominating", 0.010, self.WORK)
        current = _fake_document(
            "dominating", 0.010, {"batch.hyperbola.rows": 2955}
        )
        comparison = compare_documents(baseline, current, threshold=0.25)
        assert comparison.ok
        assert comparison.unmatched_counters == [
            ({"n": 100, "d": 3}, "batch.hyperbola.quartic_rows", "baseline")
        ]

    def test_cli_fails_on_more_work(self, tmp_path, capsys):
        baseline_dir = tmp_path / "a"
        current_dir = tmp_path / "b"
        write_document(
            _fake_document("knn", 0.010, {"knn.entries_considered": 100}),
            str(baseline_dir),
        )
        write_document(
            _fake_document("knn", 0.010, {"knn.entries_considered": 101}),
            str(current_dir),
        )
        code = cli_main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline_dir),
                "--current",
                str(current_dir),
                "--topics",
                "knn",
            ]
        )
        assert code == 1
        assert "knn.entries_considered 100 -> 101" in capsys.readouterr().out


class TestBenchCli:
    def test_run_emits_document(self, tmp_path, capsys):
        code = cli_main(
            [
                "bench",
                "--quick",
                "--topics",
                "dominating",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        path = tmp_path / "BENCH_dominating.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["topic"] == "dominating"
        assert payload["git_sha"]
        assert payload["points"]
        assert "bench dominating:" in capsys.readouterr().out

    def test_compare_exit_codes(self, tmp_path, capsys):
        baseline_dir = tmp_path / "a"
        current_dir = tmp_path / "b"
        write_document(_fake_document("knn", 0.010), str(baseline_dir))
        write_document(_fake_document("knn", 0.010), str(current_dir))
        ok = cli_main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline_dir),
                "--current",
                str(current_dir),
                "--topics",
                "knn",
            ]
        )
        assert ok == 0
        write_document(_fake_document("knn", 0.050), str(current_dir))
        failed = cli_main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline_dir),
                "--current",
                str(current_dir),
                "--topics",
                "knn",
                "--threshold",
                "0.25",
            ]
        )
        assert failed == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_unknown_topic_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["bench", "--topics", "nope"])

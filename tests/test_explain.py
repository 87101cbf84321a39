"""Tests for the per-query EXPLAIN facility (:mod:`repro.queries.explain`).

Covers the determinism contract (two identical seeded queries produce
identical signatures), the structured content (per-level node accesses,
cascade tiers, pruning effectiveness), answer equivalence with and
without ``explain=True``, budgeted/partial capture, ambient-registry
isolation, and the ``repro explain`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.data.synthetic import synthetic_dataset
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.queries.dominating import top_k_dominating
from repro.queries.explain import ExplainedResult, QueryExplain
from repro.queries.knn import KNNResult, knn_query
from repro.queries.rknn import rnn_candidates
from repro.resilience import Budget
from repro.resilience import scope as budget_scope


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture()
def world():
    dataset = synthetic_dataset(300, 3, seed=5)
    tree = SSTree.bulk_load(dataset.items())
    query = Hypersphere(np.asarray(dataset.centers[0]), 0.4)
    return dataset, tree, query


class TestKnnExplain:
    def test_off_by_default_returns_plain_result(self, world):
        _, tree, query = world
        result = knn_query(tree, query, 5)
        assert isinstance(result, KNNResult)

    def test_explained_answer_matches_plain_answer(self, world):
        _, tree, query = world
        plain = knn_query(tree, query, 5)
        explained = knn_query(tree, query, 5, explain=True)
        assert isinstance(explained, ExplainedResult)
        assert isinstance(explained.explain, QueryExplain)
        assert sorted(map(str, explained.keys)) == sorted(map(str, plain.keys))
        assert explained.distk == plain.distk  # attribute forwarding

    def test_identical_seeded_queries_have_identical_signatures(self, world):
        _, tree, query = world
        first = knn_query(tree, query, 5, explain=True).explain
        second = knn_query(tree, query, 5, explain=True).explain
        assert first.signature() == second.signature()
        # Identical content, not just identical shape.
        assert json.dumps(first.signature(), sort_keys=True) == json.dumps(
            second.signature(), sort_keys=True
        )

    def test_per_level_node_accesses_sum_to_total(self, world):
        _, tree, query = world
        detail = knn_query(tree, query, 5, explain=True).explain
        assert detail.nodes_by_level  # tree traversal: levels recorded
        assert 0 in detail.nodes_by_level  # the root was visited
        assert (
            sum(detail.nodes_by_level.values())
            == detail.traversal["nodes_visited"]
        )

    def test_cascade_tiers_add_up(self, world):
        _, tree, query = world
        detail = knn_query(
            tree, query, 5, criterion="cascade", explain=True
        ).explain
        assert detail.cascade["calls"] > 0
        tiers = (
            detail.cascade.get("overlap_reject", 0)
            + detail.cascade.get("minmax_fast_accept", 0)
            + detail.cascade.get("minmax_fast_reject", 0)
            + detail.cascade.get("hyperbola_fall_through", 0)
        )
        assert tiers == detail.cascade["calls"]

    def test_pruning_effectiveness_between_zero_and_one(self, world):
        _, tree, query = world
        detail = knn_query(tree, query, 5, explain=True).explain
        assert 0.0 <= detail.pruning_effectiveness <= 1.0

    def test_ambient_registry_untouched(self, world):
        _, tree, query = world
        with obs.enabled_scope(), obs.scope():
            knn_query(tree, query, 5, explain=True)
            counters = obs.collect()["counters"]
        # The capture ran under a private scope: nothing leaked out.
        assert "explain.queries" not in counters
        assert "hyperbola.calls" not in counters

    def test_two_phase_and_df_capture_levels(self, world):
        # Both phases (best-first, then depth-first) record their visits.
        _, tree, query = world
        explained = knn_query(tree, query, 5, explain=True)
        levels = explained.explain.nodes_by_level
        assert levels
        assert sum(levels.values()) == explained.nodes_visited

    def test_render_mentions_the_key_sections(self, world):
        _, tree, query = world
        text = knn_query(
            tree, query, 5, criterion="cascade", explain=True
        ).explain.render()
        assert "KNN explain" in text
        assert "traversal:" in text
        assert "pruning:" in text
        assert "cascade:" in text
        assert "budget:" in text

    def test_budgeted_query_reports_partial(self, world):
        _, tree, query = world
        with budget_scope(Budget(max_candidates=10)):
            explained = knn_query(tree, query, 5, explain=True)
        detail = explained.explain
        assert detail.budget is not None
        assert not detail.budget["complete"]
        assert detail.budget["candidates_charged"] > 0
        assert "PARTIAL" in detail.render()

    def test_ladder_counters_for_verified_criterion(self, world):
        _, tree, query = world
        detail = knn_query(
            tree, query, 5, criterion="verified", explain=True
        ).explain
        assert detail.ladder
        assert all(
            key.startswith("verified.stage.") for key in detail.ladder
        )

    def test_to_dict_is_json_serialisable(self, world):
        _, tree, query = world
        payload = knn_query(tree, query, 5, explain=True).explain.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["kind"] == "knn"
        assert "duration_s" in payload


def assert_hyperbola_rows_add_up(hyperbola):
    """Every kernel row ends on exactly one path; the bracket and the
    quartic both did work."""
    assert hyperbola["bounded"] > 0
    assert hyperbola["quartic"] > 0
    paths = (
        "fast_path_overlap",
        "fast_path_center_outside",
        "fast_path_point_query",
        "bisector",
        "bounded",
        "quartic",
    )
    assert hyperbola["calls"] == sum(hyperbola.get(path, 0) for path in paths)


class TestOtherKindsExplain:
    def test_rknn_explain(self, world):
        dataset, _, query = world
        flat = LinearIndex(dataset.items())
        plain = rnn_candidates(flat, query)
        explained = rnn_candidates(flat, query, explain=True)
        assert list(plain) == list(explained)
        assert explained.explain.kind == "rknn"
        assert (
            explained.explain.signature()
            == rnn_candidates(flat, query, explain=True).explain.signature()
        )
        # Batch-kernel rows fold into the Hyperbola breakdown.
        assert_hyperbola_rows_add_up(explained.explain.hyperbola)

    def test_dominating_explain(self, world):
        dataset, _, query = world
        flat = LinearIndex(dataset.items())
        plain = top_k_dominating(flat, query, 3)
        explained = top_k_dominating(flat, query, 3, explain=True)
        assert [s.key for s in plain] == [s.key for s in explained]
        assert explained.explain.kind == "dominating"
        assert explained.explain.answer_size == 3
        assert_hyperbola_rows_add_up(explained.explain.hyperbola)

    def test_dominating_bounds_and_kernel_cover_every_scored_pair(self, world):
        # Each scored row's n - 1 pairs end in exactly one place: ruled
        # out by the center bound, ruled in by MinMax, or a kernel row.
        dataset, _, query = world
        flat = LinearIndex(dataset.items())
        n = len(flat)
        detail = top_k_dominating(flat, query, 3, explain=True).explain
        bounds = detail.bounds
        assert bounds["rows_pruned"] > 0
        assert bounds["center_ruled_out"] > 0
        settled = bounds["center_ruled_out"] + bounds["minmax_ruled_in"]
        assert detail.hyperbola["calls"] + settled == (
            (n - bounds["rows_pruned"]) * (n - 1)
        )
        assert "bounds:" in detail.render()

    def test_rknn_reports_the_center_bound(self, world):
        dataset, _, query = world
        detail = rnn_candidates(
            LinearIndex(dataset.items()), query, explain=True
        ).explain
        assert detail.bounds["center_ruled_out"] > 0
        assert "rows_pruned" not in detail.bounds


class TestExplainCli:
    def test_text_render(self, capsys):
        assert cli_main(["explain", "knn", "--n", "120", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "KNN explain" in out
        assert "traversal:" in out

    def test_json_output(self, capsys):
        assert (
            cli_main(
                ["explain", "dominating", "--n", "60", "--k", "2", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "dominating"
        assert payload["answer_size"] == 2

    def test_rknn_kind(self, capsys):
        assert cli_main(["explain", "rknn", "--n", "60"]) == 0
        assert "RKNN explain" in capsys.readouterr().out

"""The reference answers, and the checks that fail a run."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from perfbench import suite
from perfbench.loadgen import HttpTransport, Request
from perfbench.reference import (
    Entries,
    check_knn,
    dominance_scores,
    knn_answer,
    rknn_answer,
)
from perfbench.tests.conftest import SMOKE_SECONDS, smoke_spec
from perfbench.workloads import build_inputs, query_design
from repro.data.synthetic import synthetic_dataset
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.dominating import dominance_scores as served_scores
from repro.queries.knn import knn_reference
from repro.queries.rknn import rnn_candidates
from repro.stream.engine import StreamingIndex


def _data(
    n: int, mu: float, seed: int
) -> "tuple[Entries, LinearIndex, list[Hypersphere]]":
    dataset = synthetic_dataset(n, 3, mu=mu, seed=seed)
    items = list(dataset.items())
    design = query_design(12, 3, mu, np.random.default_rng(seed))
    entries = Entries([k for k, _ in items], dataset.centers, dataset.radii)
    return entries, LinearIndex(items), [Hypersphere(c, r) for c, r in design]


@pytest.mark.parametrize("mu", [0.5, 10.0])
def test_knn_answer_is_the_library_reference(mu: float) -> None:
    entries, flat, queries = _data(400, mu, 1)
    for query in queries:
        answer, certain = knn_answer(entries, query.center, query.radius, 5)
        assert answer == set(knn_reference(flat, query, 5).keys)
        assert len(certain) >= 5 and certain <= answer


def test_rknn_answer_matches_the_library() -> None:
    entries, flat, queries = _data(60, 10.0, 2)
    for query in queries:
        assert rknn_answer(entries, query.center, query.radius) == set(
            rnn_candidates(flat, query)
        )


def test_dominance_scores_match_the_library() -> None:
    entries, flat, queries = _data(60, 10.0, 3)
    for query in queries:
        scores = dominance_scores(entries, query.center, query.radius)
        assert scores == {row.key: row.score for row in served_scores(flat, query)}


class _Tampering(HttpTransport):
    """Drops or adds one key in the first measured non-empty answer of one kind."""

    kind = "knn"
    mode = "add"
    done = False

    async def send(self, request: Request, request_id: str) -> "tuple[int, bytes]":
        status, body = await super().send(request, request_id)
        warmup = request_id.startswith("warmup")
        if status != 200 or request.kind != self.kind or self.done or warmup:
            return status, body
        payload = json.loads(body)
        result = payload["result"]
        keys = result["keys"] if self.kind == "knn" else result
        if not keys:
            return status, body
        if self.mode == "drop":
            keys.pop()
        else:
            keys.append(-1)
        self.done = True
        return status, json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize(
    "workload, kind, mode",
    [
        ("knn-large", "knn", "add"),
        ("flat-scans", "rknn", "add"),
        ("flat-scans", "rknn", "drop"),
    ],
)
def test_a_tampered_answer_fails_the_run(
    workload: str,
    kind: str,
    mode: str,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    monkeypatch.setattr(_Tampering, "kind", kind)
    monkeypatch.setattr(_Tampering, "mode", mode)
    monkeypatch.setattr(suite, "HttpTransport", _Tampering)
    monkeypatch.setitem(suite.SPECS, workload, smoke_spec(workload))
    code = suite.main(["--workload", workload, "--seed", "5", "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK FAILED" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_a_knn_answer_missing_a_certain_key_fails() -> None:
    entries, _, queries = _data(300, 0.5, 4)
    answer, certain = knn_answer(entries, queries[0].center, queries[0].radius, 5)
    served = {"keys": sorted(certain)[1:]}
    problem, _ = check_knn(served, answer, certain)
    assert problem is not None and "certain" in problem
    assert check_knn({"keys": sorted(answer)}, answer, certain) == (None, 1.0)


def test_served_answers_agree_with_the_references(
    workload: str, tmp_path: "os.PathLike[str]"
) -> None:
    inputs = build_inputs(smoke_spec(workload), 6, str(tmp_path))
    served = suite.serve(inputs, SMOKE_SECONDS, str(tmp_path), boots=1)
    verdict = suite.verify(inputs, served.samples)
    assert verdict.correct, verdict.problems
    assert sum(s.status == 200 for s in served.samples) >= 2


def test_replay_model_equals_the_served_stream(tmp_path: "os.PathLike[str]") -> None:
    inputs = build_inputs(smoke_spec("mutate-mix"), 7, str(tmp_path))
    served = suite.serve(inputs, SMOKE_SECONDS, str(tmp_path), boots=1)
    verdict = suite.verify(inputs, served.samples)
    assert verdict.correct, verdict.problems
    assert any(s.request.kind == "mutate" and s.status == 200 for s in served.samples)
    with StreamingIndex.open(inputs.target) as stream:
        effective = {
            key: (tuple(float(c) for c in sphere.center), float(sphere.radius))
            for key, sphere in stream.effective_entries()
        }
    assert verdict.model is not None
    assert verdict.model.as_dict() == effective

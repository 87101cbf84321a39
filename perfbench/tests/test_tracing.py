"""Spans, self time and hooks of the traced run."""

from __future__ import annotations

import asyncio
import json

from perfbench.tracing import (
    HOOKS,
    Hook,
    Recorder,
    RequestTag,
    Span,
    install,
    pool_config,
    self_time,
)
from repro.data.synthetic import synthetic_dataset
from repro.index.sstree import SSTree
from repro.serve import app as serve_app
from repro.serve import supervisor
from repro.serve.app import ServeApp
from repro.serve.protocol import HttpRequest
from repro.serve.supervisor import SupervisorConfig


def _span(start: float, end: float) -> Span:
    return Span("x", RequestTag(), None, start, end)


def test_self_time_subtracts_the_union_of_children() -> None:
    parent = _span(0.0, 10.0)
    # Overlapping children count once; a child running past the parent
    # is clipped to the parent's interval.
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert self_time(parent, children) == 10.0 - 4.0 - 2.0
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [(0.0, 10.0), (3.0, 4.0)]) == 0.0


def test_spans_carry_the_request_across_the_executor_hop() -> None:
    dataset = synthetic_dataset(200, 3, mu=0.5, seed=0)
    app = ServeApp()
    app.register_index("default", SSTree.bulk_load(dataset.items()))
    recorder = Recorder()
    body = {"kind": "knn", "center": [100.0, 100.0, 100.0], "radius": 0.5, "k": 3}
    request = HttpRequest("POST", "/query", {}, {}, json.dumps(body).encode("utf-8"))

    async def one() -> int:
        with recorder.span("root", RequestTag("r-17")):
            response = await app.handle(request)
        return response.status

    try:
        with install(HOOKS, recorder):
            assert asyncio.run(one()) == 200
    finally:
        app.close(drain_s=0.0)
    by_name = {span.name: span for span in recorder.spans}
    query, handle = by_name["query.knn"], by_name["app.handle"]
    assert query.tag.id == "r-17" and query.tag is by_name["root"].tag
    assert query.parent is handle and handle.parent is by_name["root"]
    assert by_name["admission.wait"].parent is handle


def test_the_hosted_pool_gets_the_config_the_cli_builds() -> None:
    real = supervisor.Supervisor
    config = pool_config(
        [
            "--snapshot", "default=a.snap",
            "--stream", "live=stream-dir",
            "--workers", "2",
            "--deadline-ms", "500",
            "--drain-ms", "250",
            "--max-queue", "7",
        ]
    )
    assert config == SupervisorConfig(
        query_workers=2,
        snapshots={"default": "a.snap"},
        streams={"live": "stream-dir"},
        deadline_scale=0.5,
        max_queue=7,
        drain_s=0.25,
    )
    assert supervisor.Supervisor is real


def test_a_missing_hook_target_is_absent_and_the_rest_still_hook() -> None:
    original = serve_app.knn_query
    hooks = [
        Hook("repro.serve.app", "NoSuchClass.handle", "gone"),
        Hook("repro.serve.app", "no_such_function", "gone"),
        Hook("repro.no_such_module", "anything", "gone"),
        Hook("repro.serve.app", "knn_query", "query.knn"),
    ]
    with install(hooks, Recorder()) as status:
        assert serve_app.knn_query is not original
    assert status == {
        "repro.serve.app.NoSuchClass.handle": "absent",
        "repro.serve.app.no_such_function": "absent",
        "repro.no_such_module.anything": "absent",
        "repro.serve.app.knn_query": "hooked",
    }
    assert serve_app.knn_query is original

"""Serve-layer streaming tests: POST /mutate, warm restarts, and slo.

Same harness as ``test_serve_app``: a real asyncio server on an
ephemeral port, full HTTP round trips.  The durability claim under test
is end-to-end — a 200 from ``/mutate`` means the record survives a
server restart over the same directory.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.obs import export as obs_export
from repro.serve.app import ServeApp, start_server
from repro.serve.slo import aggregate
from repro.serve.slo import main as slo_main
from repro.serve.smoke import request
from repro.stream.engine import StreamingIndex

N, DIMENSION, K = 60, 3, 4


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=13)


@pytest.fixture()
def stream_dir(tmp_path, dataset):
    directory = str(tmp_path / "stream")
    StreamingIndex.create(directory, list(dataset.items()), kind="sstree").close()
    return directory


def drive(app: ServeApp, scenario):
    async def go():
        server = await start_server(app)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await scenario(host, port)
        finally:
            server.close()
            await server.wait_closed()

    with obs.enabled_scope(True), obs.scope():
        try:
            return asyncio.run(go()), obs.collect()
        finally:
            app.close()


def make_stream_app(stream_dir, **kwargs) -> ServeApp:
    app = ServeApp(**kwargs)
    state = app.load_stream("default", stream_dir)
    assert not state.quarantined, state.error
    return app


def mutate_body(**overrides):
    body = {
        "index": "default",
        "op": "insert",
        "key": 9001,
        "center": [100.0, 100.0, 100.0],
        "radius": 0.5,
    }
    body.update(overrides)
    return body


class TestMutateEndpoint:
    def test_insert_acks_with_monotone_seqs(self, stream_dir):
        async def scenario(host, port):
            first = await request(host, port, "POST", "/mutate",
                                  body=mutate_body())
            second = await request(host, port, "POST", "/mutate",
                                   body=mutate_body(key=9002))
            delete = await request(
                host, port, "POST", "/mutate",
                body={"index": "default", "op": "delete", "key": 9001},
            )
            return first, second, delete

        (first, second, delete), metrics = drive(
            make_stream_app(stream_dir), scenario
        )
        for status, _, _ in (first, second, delete):
            assert status == 200
        bodies = [json.loads(raw) for _, _, raw in (first, second, delete)]
        assert [b["seq"] for b in bodies] == [1, 2, 3]
        assert all(b["acked"] is True for b in bodies)
        assert bodies[2]["op"] == "delete"
        counters = metrics["counters"]
        assert counters["serve.mutations"] == 3
        assert counters["serve.mutations.acked"] == 3

    def test_mutation_worker_inherits_request_context(self, stream_dir):
        """Regression (DOM202): the executor hop runs under a copy of
        the request's context, so WAL metrics recorded inside the
        worker thread land in the request's contextvar-scoped obs
        registry instead of vanishing into the worker's empty context.
        """

        async def scenario(host, port):
            return await request(host, port, "POST", "/mutate",
                                 body=mutate_body())

        (status, _, _), metrics = drive(make_stream_app(stream_dir), scenario)
        assert status == 200
        counters = metrics["counters"]
        assert counters["wal.appends"] == 1
        assert counters["wal.fsyncs"] >= 1

    def test_acked_mutations_survive_a_server_restart(self, stream_dir, dataset):
        async def scenario(host, port):
            await request(host, port, "POST", "/mutate", body=mutate_body())
            gone = next(iter(dict(dataset.items())))
            await request(
                host, port, "POST", "/mutate",
                body={"index": "default", "op": "delete", "key": gone},
            )
            return gone

        gone, _ = drive(make_stream_app(stream_dir), scenario)

        # A second app over the same directory replays the WAL: the
        # acked insert is queryable, the acked delete never answers.
        async def after_restart(host, port):
            return await request(
                host, port, "POST", "/query",
                body={
                    "kind": "knn", "index": "default",
                    "center": [100.0, 100.0, 100.0], "radius": 0.5, "k": K,
                },
            )

        (status, _, raw), _ = drive(make_stream_app(stream_dir), after_restart)
        assert status == 200
        keys = json.loads(raw)["result"]["keys"]
        assert 9001 in keys
        assert gone not in keys

    @pytest.mark.parametrize(
        "body",
        [
            {"index": "default", "op": "upsert", "key": 1},
            mutate_body(center=[1.0, 2.0]),
            mutate_body(radius=-2.0),
            mutate_body(radius="wide"),
            {"index": "default", "op": "insert", "key": 1},
            {"index": "default", "op": "delete"},
            {"index": "default", "op": "delete", "key": [1, 2]},
        ],
    )
    def test_invalid_payloads_get_typed_400(self, stream_dir, body):
        async def scenario(host, port):
            return await request(host, port, "POST", "/mutate", body=body)

        (status, _, raw), metrics = drive(make_stream_app(stream_dir), scenario)
        assert status == 400
        parsed = json.loads(raw)
        assert parsed["type"] == "ValidationError"
        assert parsed["error"] == "validation"
        assert metrics["counters"]["serve.mutations.rejected"] == 1
        # The rejected payload never reached the WAL.
        with StreamingIndex.open(stream_dir) as stream:
            assert stream.last_seq == 0

    def test_snapshot_backed_index_is_immutable(self, tmp_path, dataset):
        from repro.index import snapshot as snapshot_io
        from repro.index.sstree import SSTree

        path = str(tmp_path / "frozen.snap")
        snapshot_io.save(SSTree.bulk_load(dataset.items()), path)
        app = ServeApp.from_snapshots({"default": path})

        async def scenario(host, port):
            return await request(host, port, "POST", "/mutate",
                                 body=mutate_body())

        (status, _, raw), _ = drive(app, scenario)
        assert status == 409
        assert json.loads(raw)["error"] == "immutable_index"

    def test_unknown_index_404_and_get_405(self, stream_dir):
        async def scenario(host, port):
            missing = await request(
                host, port, "POST", "/mutate",
                body=mutate_body(index="nope"),
            )
            wrong = await request(host, port, "GET", "/mutate")
            return missing, wrong

        (missing, wrong), _ = drive(make_stream_app(stream_dir), scenario)
        assert missing[0] == 404
        assert wrong[0] == 405

    def test_queries_merge_live_mutations(self, stream_dir):
        # An insert is visible to the very next query on the same app —
        # no compaction or restart required.
        async def scenario(host, port):
            await request(host, port, "POST", "/mutate", body=mutate_body())
            return await request(
                host, port, "POST", "/query",
                body={
                    "kind": "knn", "index": "default",
                    "center": [100.0, 100.0, 100.0], "radius": 0.4, "k": 1,
                },
            )

        (status, _, raw), _ = drive(make_stream_app(stream_dir), scenario)
        assert status == 200
        assert json.loads(raw)["result"]["keys"] == [9001]

    def test_flat_queries_on_an_emptied_stream(self, tmp_path, dataset):
        # Delete every object, then query: RkNN has no candidate left,
        # and top-k has no k to give, like kNN — never a 500.
        directory = str(tmp_path / "tiny")
        items = list(dataset.items())[:4]
        StreamingIndex.create(directory, items, kind="sstree").close()
        where = {"index": "default", "center": [100.0, 100.0, 100.0],
                 "radius": 0.5}

        async def scenario(host, port):
            for key, _ in items:
                status, _, _ = await request(
                    host, port, "POST", "/mutate",
                    body={"index": "default", "op": "delete", "key": key},
                )
                assert status == 200
            return [
                await request(host, port, "POST", "/query",
                              body={"kind": kind, **where, **extra})
                for kind, extra in (
                    ("rknn", {}), ("dominating", {"k": 1}), ("knn", {"k": 1})
                )
            ]

        (rknn, dominating, knn), _ = drive(make_stream_app(directory), scenario)
        assert rknn[0] == 200
        assert json.loads(rknn[2])["result"] == []
        for status, _, raw in (dominating, knn):
            assert status == 400
            assert "exceeds the dataset size 0" in json.loads(raw)["message"]


class TestSloAggregation:
    def _event(self, tenant, status, duration_s=0.01):
        return obs_export.QueryEvent(
            kind="knn", duration_s=duration_s, answer_size=1,
            tenant=tenant, status=status,
        )

    def test_buckets_and_quantiles(self):
        events = (
            [self._event("standard", 200, 0.010 * (i + 1)) for i in range(10)]
            + [self._event("standard", 206, 0.5)]
            + [self._event("standard", 429)]
            + [self._event("standard", 400)]
            + [self._event("batch", 500)]
            + [obs_export.QueryEvent(kind="knn", duration_s=0.2, answer_size=1)]
        )
        table = aggregate(events)
        assert sorted(table) == ["batch", "standard", "unknown"]
        standard = table["standard"].to_dict()
        assert standard["requests"] == 13
        assert standard["ok"] == 10
        assert standard["degraded"] == 1
        assert standard["shed"] == 1
        assert standard["rejected"] == 1
        assert standard["errors"] == 0
        # Sheds/rejections contribute no latency samples.
        latency = standard["latency_s"]
        assert latency["p50"] == pytest.approx(0.06)
        assert latency["p99"] == 0.5
        assert table["batch"].errors == 1
        # Legacy events (no tenant/status) degrade to unknown/ok.
        assert table["unknown"].ok == 1

    def test_cli_round_trip(self, tmp_path, capsys):
        log_path = str(tmp_path / "events.jsonl")
        with obs_export.QueryEventLog.open(log_path) as log:
            for event in (
                self._event("standard", 200),
                self._event("standard", 429),
                self._event("interactive", 206),
            ):
                log.emit(event)
        assert slo_main([log_path]) == 0
        table_out = capsys.readouterr().out
        assert "standard" in table_out and "interactive" in table_out
        assert slo_main([log_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["standard"]["shed"] == 1
        assert payload["interactive"]["degraded"] == 1

    def test_unreadable_log_is_exit_1(self, tmp_path, capsys):
        assert slo_main([str(tmp_path / "missing.jsonl")]) == 1
        assert "slo error" in capsys.readouterr().err

    def test_serve_emits_tenant_and_status_fields(self, stream_dir, tmp_path):
        log_path = str(tmp_path / "serve-events.jsonl")
        app = make_stream_app(
            stream_dir, event_log=obs_export.QueryEventLog.open(log_path)
        )

        async def scenario(host, port):
            await request(host, port, "POST", "/mutate", body=mutate_body())
            await request(
                host, port, "POST", "/query",
                body={
                    "kind": "knn", "index": "default",
                    "center": [100.0, 100.0, 100.0], "radius": 0.4, "k": 1,
                },
            )
            await request(host, port, "POST", "/mutate",
                          body=mutate_body(radius=-1.0))

        drive(app, scenario)
        events = obs_export.read_events(log_path)
        statuses = sorted(event.status for event in events)
        assert statuses == [200, 200, 400]
        assert {event.tenant for event in events} == {"standard"}
        table = aggregate(events)
        assert table["standard"].ok == 2
        assert table["standard"].rejected == 1

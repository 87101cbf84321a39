"""End-to-end serve tests: a real asyncio server on an ephemeral port.

Every test here drives the full stack — TCP connection, hand-rolled
HTTP parsing, routing, admission, a budgeted attempt on the event loop,
response encoding — not the handler functions in isolation.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.obs import export as obs_export
from repro.obs import names
from repro.queries.knn import knn_query
from repro.resilience.partial import ResilienceReport
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp, start_server
from repro.serve.breaker import BreakerState
from repro.serve.retry import RetryPolicy
from repro.serve.smoke import request
from repro.serve.tenancy import TenantClass, TenantPolicy

N, DIMENSION, K = 120, 3, 5


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=11)


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory):
    tree = SSTree.bulk_load(dataset.items(), max_entries=8)
    path = tmp_path_factory.mktemp("serve") / "fixture.snap"
    snapshot_io.save(tree, path)
    return str(path)


@pytest.fixture(scope="module")
def query_body(dataset):
    sphere = knn_queries(dataset, count=1, seed=5)[0]
    return {
        "kind": "knn",
        "index": "default",
        "center": [float(c) for c in sphere.center],
        "radius": float(sphere.radius),
        "k": K,
    }


def drive(app: ServeApp, scenario):
    """Boot *app*, run ``await scenario(host, port)``, tear down."""

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


def make_app(snapshot_path, **kwargs) -> ServeApp:
    return ServeApp.from_snapshots({"default": snapshot_path}, **kwargs)


class TestOperationalEndpoints:
    def test_healthz_readyz_metrics(self, snapshot_path):
        async def scenario(host, port):
            health = await request(host, port, "GET", "/healthz")
            ready = await request(host, port, "GET", "/readyz")
            metrics = await request(host, port, "GET", "/metrics")
            return health, ready, metrics

        (health, ready, metrics), _ = drive(make_app(snapshot_path), scenario)
        assert health[0] == 200
        assert ready[0] == 200
        body = json.loads(ready[2])
        assert body["ready"] is True
        index = body["indexes"]["default"]
        assert index["healthy"] and index["entries"] == N
        assert index["breaker"]["state"] == "closed"
        assert metrics[0] == 200
        assert metrics[1]["content-type"].startswith("text/plain")
        assert "# TYPE repro_serve_requests_total counter" in metrics[2].decode()

    def test_unknown_path_404_and_wrong_method_405(self, snapshot_path):
        async def scenario(host, port):
            return (
                await request(host, port, "GET", "/nope"),
                await request(host, port, "GET", "/query"),
            )

        (missing, wrong_method), _ = drive(make_app(snapshot_path), scenario)
        assert missing[0] == 404
        assert wrong_method[0] == 405

    def test_protocol_garbage_gets_4xx_not_a_hangup(self, snapshot_path):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"COMPLETE GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw, stats = drive(make_app(snapshot_path), scenario)
        assert b"HTTP/1.1 4" in raw  # a clean 4xx, never a dropped socket
        assert stats["counters"][names.SERVE_PROTOCOL_ERRORS] == 1


class TestQueryPath:
    def test_clean_knn_matches_direct_query(
        self, snapshot_path, dataset, query_body
    ):
        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=query_body)

        (status, _, body), stats = drive(make_app(snapshot_path), scenario)
        assert status == 200
        payload = json.loads(body)
        assert payload["degraded"] is False
        assert payload["kind"] == "knn"
        assert payload["report"]["complete"] is True
        tree = SSTree.bulk_load(dataset.items(), max_entries=8)
        sphere = knn_queries(dataset, count=1, seed=5)[0]
        direct = knn_query(tree, sphere, K)
        assert set(payload["result"]["keys"]) == direct.key_set()
        assert payload["result"]["distk"] == pytest.approx(direct.distk)
        assert stats["counters"][names.SERVE_RESPONSES_OK] == 1
        assert stats["counters"][names.tenant_outcome("standard", "ok")] == 1

    @pytest.mark.parametrize("kind", ("rknn", "dominating"))
    def test_other_query_kinds_serve(self, snapshot_path, query_body, kind):
        body = dict(query_body, kind=kind)

        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=body)

        (status, _, raw), _ = drive(make_app(snapshot_path), scenario)
        assert status == 200
        payload = json.loads(raw)
        assert payload["kind"] == kind
        assert isinstance(payload["result"], list)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"kind": "teleport"},
            {"center": "not a list"},
            {"center": []},
            {"center": [1.0, "x", 2.0]},
            {"radius": "wide"},
            {"radius": -2.0},
            {"k": 0},
            {"k": True},
            {"k": "many"},
            {"index": ""},
            {"kind": "dominating", "criterion": "verified"},
            {"criterion": "nope"},
            {"criterion": 7},
            {"kind": "rknn", "criterion": "nope"},
        ],
    )
    def test_invalid_payloads_get_400(self, snapshot_path, query_body, mutation):
        body = dict(query_body, **mutation)

        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=body)

        (status, _, raw), stats = drive(make_app(snapshot_path), scenario)
        assert status == 400
        assert json.loads(raw)["error"] == "validation"
        assert stats["counters"][names.SERVE_RESPONSES_REJECTED] == 1

    def test_dimension_mismatch_is_400_not_500(self, snapshot_path, query_body):
        body = dict(query_body, center=[0.0, 0.0])  # index is 3-d

        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=body)

        (status, _, raw), _ = drive(make_app(snapshot_path), scenario)
        assert status == 400
        assert json.loads(raw)["error"] == "validation"

    def test_unknown_index_404(self, snapshot_path, query_body):
        body = dict(query_body, index="elsewhere")

        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=body)

        (status, _, raw), _ = drive(make_app(snapshot_path), scenario)
        assert status == 404
        payload = json.loads(raw)
        assert payload["error"] == "unknown_index"
        assert payload["known"] == ["default"]

    def test_tenant_header_resolves_and_echoes(self, snapshot_path, query_body):
        async def scenario(host, port):
            return (
                await request(
                    host,
                    port,
                    "POST",
                    "/query",
                    body=query_body,
                    headers={"x-tenant-class": "interactive"},
                ),
                await request(
                    host,
                    port,
                    "POST",
                    "/query",
                    body=query_body,
                    headers={"x-tenant-class": "who-knows"},
                ),
            )

        (interactive, unknown), _ = drive(make_app(snapshot_path), scenario)
        assert json.loads(interactive[2])["tenant_class"] == "interactive"
        # Unknown classes degrade to the default, they don't error.
        assert json.loads(unknown[2])["tenant_class"] == "standard"

    def test_event_log_records_served_queries(self, snapshot_path, query_body):
        sink = io.StringIO()
        app = make_app(
            snapshot_path, event_log=obs_export.QueryEventLog(sink)
        )

        async def scenario(host, port):
            return await request(host, port, "POST", "/query", body=query_body)

        (status, _, _), _ = drive(app, scenario)
        assert status == 200
        lines = [l for l in sink.getvalue().splitlines() if l]
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["kind"] == "serve.knn"
        assert event["complete"] is True


class TestDegradationAndSheds:
    def test_rate_limit_shed_is_429_with_retry_after(
        self, snapshot_path, query_body
    ):
        stingy = TenantClass(
            name="stingy", deadline_ms=1000.0, rate_per_s=0.1, burst=1
        )
        app = make_app(
            snapshot_path,
            policy=TenantPolicy({"stingy": stingy}, default="stingy"),
        )

        async def scenario(host, port):
            first = await request(host, port, "POST", "/query", body=query_body)
            second = await request(host, port, "POST", "/query", body=query_body)
            return first, second

        (first, second), stats = drive(app, scenario)
        assert first[0] == 200
        status, headers, raw = second
        assert status == 429
        payload = json.loads(raw)
        assert payload["reason"] == "rate_limited"
        assert float(headers["retry-after"]) > 0.0
        assert stats["counters"][names.SERVE_RESPONSES_SHED] == 1
        assert stats["counters"][names.SERVE_ADMISSION_RATE_LIMITED] == 1

    def test_handler_fault_becomes_206_with_full_report(
        self, snapshot_path, query_body
    ):
        from repro.robust import faults

        app = make_app(snapshot_path)

        async def scenario(host, port):
            with faults.inject("handler", "raise"):
                return await request(
                    host,
                    port,
                    "POST",
                    "/query",
                    body=query_body,
                    headers={"x-tenant-class": "batch"},  # no retry
                )

        (status, _, raw), stats = drive(app, scenario)
        assert status == 206
        payload = json.loads(raw)
        assert payload["degraded"] is True
        report = ResilienceReport.from_dict(payload["report"])
        assert report.degraded and report.absorbed_faults >= 1
        assert report.exhausted == "fault"
        assert stats["counters"][names.SERVE_HANDLER_FAULTS] == 1
        assert stats["counters"][names.SERVE_RESPONSES_DEGRADED] == 1

    def test_transient_fault_rescued_by_retry(self, snapshot_path, query_body):
        from repro.robust import faults

        app = make_app(
            snapshot_path, retry_policy=RetryPolicy(backoff_s=0.0)
        )

        async def scenario(host, port):
            # every=2: the first attempt faults, the retry runs clean.
            with faults.inject("handler", "raise", every=2):
                return await request(
                    host, port, "POST", "/query", body=query_body
                )

        (status, _, raw), stats = drive(app, scenario)
        assert status == 200
        payload = json.loads(raw)
        assert payload["degraded"] is False
        assert payload["attempts"] == 2
        assert stats["counters"][names.SERVE_RETRIES] == 1
        assert stats["counters"][names.SERVE_RETRY_RESCUES] == 1

    def test_breaker_opens_then_recovers(self, snapshot_path, query_body):
        from repro.robust import faults

        app = make_app(
            snapshot_path,
            breaker_failure_threshold=2,
            breaker_recovery_s=0.15,
        )
        batch = {"x-tenant-class": "batch"}  # no retry: one fault each

        async def scenario(host, port):
            with faults.inject("handler", "raise"):
                faulted = [
                    (
                        await request(
                            host, port, "POST", "/query",
                            body=query_body, headers=batch,
                        )
                    )[0]
                    for _ in range(2)
                ]
            shed_status, shed_headers, shed_raw = await request(
                host, port, "POST", "/query", body=query_body, headers=batch
            )
            opened = app.indexes["default"].breaker.state
            await asyncio.sleep(0.3)  # past the recovery window
            probe = await request(
                host, port, "POST", "/query", body=query_body, headers=batch
            )
            return faulted, (shed_status, shed_headers, shed_raw), opened, probe

        (faulted, shed, opened, probe), stats = drive(app, scenario)
        assert faulted == [206, 206]
        assert shed[0] == 429
        assert json.loads(shed[2])["reason"] == "breaker_open"
        assert float(shed[1]["retry-after"]) > 0.0
        assert opened is BreakerState.OPEN
        # The half-open probe ran clean and closed the breaker.
        assert probe[0] == 200
        assert app.indexes["default"].breaker.state is BreakerState.CLOSED
        counters = stats["counters"]
        assert counters[names.breaker_transition("default", "open")] == 1
        assert counters[names.breaker_transition("default", "closed")] == 1
        assert counters[names.SERVE_BREAKER_SHORT_CIRCUITS] >= 1


class TestQuarantine:
    def test_corrupt_snapshot_quarantines_instead_of_crashing(
        self, tmp_path, query_body
    ):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"\x00" * 64)

        with obs.enabled_scope(True), obs.scope():
            app = ServeApp.from_snapshots({"default": str(bad)})
            assert obs.counter_value(names.SERVE_QUARANTINED_INDEXES) == 1
        state = app.indexes["default"]
        assert state.quarantined
        assert "SnapshotCorruptionError" in (state.error or "")

        async def scenario(host, port):
            ready = await request(host, port, "GET", "/readyz")
            query = await request(host, port, "POST", "/query", body=query_body)
            return ready, query

        (ready, query), stats = drive(app, scenario)
        assert ready[0] == 503
        assert json.loads(ready[2])["ready"] is False
        assert query[0] == 503
        assert json.loads(query[2])["error"] == "index_quarantined"
        assert stats["counters"][names.SERVE_RESPONSES_UNAVAILABLE] == 1

    def test_one_quarantined_index_does_not_sink_the_healthy_one(
        self, tmp_path, snapshot_path, query_body
    ):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"junk")
        app = ServeApp.from_snapshots(
            {"default": snapshot_path, "corrupt": str(bad)}
        )

        async def scenario(host, port):
            ready = await request(host, port, "GET", "/readyz")
            good = await request(host, port, "POST", "/query", body=query_body)
            return ready, good

        (ready, good), _ = drive(app, scenario)
        assert ready[0] == 200  # any healthy index keeps the pod ready
        body = json.loads(ready[2])
        assert body["indexes"]["corrupt"]["healthy"] is False
        assert good[0] == 200


class TestServeCli:
    def test_build_app_synthetic_fallback_and_snapshot(self, snapshot_path):
        from repro.serve.cli import build_app, build_parser

        parser = build_parser()
        app = build_app(parser.parse_args([]))
        try:
            assert app.indexes["default"].source == "synthetic"
        finally:
            app.close()
        app = build_app(
            parser.parse_args(
                ["--snapshot", f"main={snapshot_path}", "--deadline-ms", "500"]
            )
        )
        try:
            assert app.indexes["main"].healthy
            # --deadline-ms rescales the whole tenant ladder (500 is the
            # new 'standard'; interactive keeps its 150/1000 proportion).
            assert app.policy.resolve("standard").deadline_ms == pytest.approx(500)
            assert app.policy.resolve("interactive").deadline_ms == pytest.approx(75)
        finally:
            app.close()

    def test_malformed_snapshot_spec_fails_cleanly(self, capsys):
        from repro.serve.cli import main

        assert main(["--snapshot", "missing-equals-sign"]) == 1
        assert "NAME=PATH" in capsys.readouterr().err


#: Admission never sheds this tenant on rate: only the queue bound can.
ROOMY = TenantClass(
    name="roomy", deadline_ms=30_000.0, rate_per_s=10_000.0, burst=1000
)


class TestInlineAttempts:
    """A single process runs each attempt on its loop, one at a time."""

    def test_a_burst_of_every_kind_starts_no_executor_thread(
        self, snapshot_path, query_body
    ):
        app = make_app(
            snapshot_path, policy=TenantPolicy({"roomy": ROOMY}, default="roomy")
        )
        bodies = [
            dict(query_body, kind=kind)
            for kind in ("knn", "rknn", "dominating")
            for _ in range(4)
        ]

        async def scenario(host, port):
            before = set(threading.enumerate())
            responses = await asyncio.gather(
                *(request(host, port, "POST", "/query", body=b) for b in bodies)
            )
            started = [
                thread.name
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith("repro-serve")
            ]
            return [status for status, _, _ in responses], started

        (statuses, started), _ = drive(app, scenario)
        assert statuses == [200] * len(bodies)
        assert started == []

    def test_a_burst_into_one_slot_sheds_what_the_queue_cannot_hold(
        self, snapshot_path, query_body
    ):
        # The attempt yields once before it runs, so the whole burst
        # reaches admission first: one request runs, 32 queue, 47 shed.
        app = make_app(
            snapshot_path,
            policy=TenantPolicy({"roomy": ROOMY}, default="roomy"),
            admission=AdmissionController(max_concurrency=1, max_queue=32),
        )

        async def scenario(host, port):
            return await asyncio.gather(
                *(
                    request(host, port, "POST", "/query", body=query_body)
                    for _ in range(80)
                )
            )

        responses, stats = drive(app, scenario)
        statuses = [status for status, _, _ in responses]
        assert statuses.count(200) == 33
        assert statuses.count(429) == 47
        reasons = {
            json.loads(raw)["reason"]
            for status, _, raw in responses
            if status == 429
        }
        assert reasons == {"queue_full"}
        assert stats["counters"][names.SERVE_ADMISSION_QUEUE_FULL] == 47

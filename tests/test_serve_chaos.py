"""Chaos suite for the serving layer: the invariant, now over HTTP.

The degradation contract extends across the network boundary: under
**every** serve-relevant fault seam × mode, the server

- never returns a wrong certified verdict — a response *not* flagged
  degraded must equal the fault-free baseline exactly;
- never answers 5xx for overload or degradation — only **200**
  (clean), **206** (degraded, with a serialised resilience report) or
  **429** (shed, with Retry-After) may appear.

Every scenario boots a real asyncio server on an ephemeral port and
talks to it over TCP; nothing is stubbed.  The load test at the bottom
drives a concurrent burst into a deliberately tiny admission envelope
and checks bounded tail latency plus nonzero shed/degraded counters in
the exported ``/metrics`` text.

This file rides along with ``make chaos`` / the CI chaos job.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.robust import faults
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp, start_server
from repro.serve.retry import RetryPolicy
from repro.serve.smoke import request

#: Seams with a path into the serving stack: the serve-native seams
#: plus the kernel/index seams a query touches while executing, and
#: ``quartic``, which no served query reaches any more, so a fault
#: there must leave every answer clean.
SERVE_SEAMS = (
    "handler", "queue", "clock", "index", "dmin", "quartic", "frame", "distance"
)
ALLOWED_STATUSES = {200, 206, 429}
N, DIMENSION, K, REQUESTS = 110, 3, 6, 6


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=29)


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory):
    tree = SSTree.bulk_load(dataset.items(), max_entries=8)
    path = tmp_path_factory.mktemp("serve-chaos") / "chaos.snap"
    snapshot_io.save(tree, path)
    return str(path)


@pytest.fixture(scope="module")
def bodies(dataset):
    # The certified criterion: a non-degraded answer is then a
    # *certified* verdict, which is exactly what must never be wrong.
    return [
        {
            "kind": "knn",
            "index": "default",
            "center": [float(c) for c in sphere.center],
            "radius": float(sphere.radius),
            "k": K,
            "criterion": "verified",
        }
        for sphere in knn_queries(dataset, count=REQUESTS, seed=31)
    ]


def _boot_and_fire(snapshot_path, bodies, seam=None, mode=None, every=1):
    """One scenario: boot, fire *bodies* (under a seam), return responses."""
    app = ServeApp.from_snapshots(
        {"default": snapshot_path},
        retry_policy=RetryPolicy(backoff_s=0.0, hedge_delay_s=0.0),
    )

    async def go():
        server = await start_server(app)
        host, port = server.sockets[0].getsockname()[:2]
        responses = []
        try:
            for body in bodies:
                status, headers, raw = await request(
                    host, port, "POST", "/query", body=body
                )
                responses.append((status, headers, json.loads(raw)))
        finally:
            server.close()
            await server.wait_closed()
        return responses

    try:
        if seam is None:
            return asyncio.run(go())
        with faults.inject(seam, mode, every=every):
            return asyncio.run(go())
    finally:
        app.close()


@pytest.fixture(scope="module")
def baseline(snapshot_path, bodies):
    """Fault-free responses: every one must be a clean 200."""
    responses = _boot_and_fire(snapshot_path, bodies)
    assert [status for status, _, _ in responses] == [200] * len(bodies)
    return [payload["result"] for _, _, payload in responses]


def _assert_result_matches(result, clean) -> None:
    assert set(result["keys"]) == set(clean["keys"])
    assert math.isclose(result["distk"], clean["distk"], rel_tol=1e-9)


class TestServeSeamMatrix:
    @pytest.mark.parametrize("seam", SERVE_SEAMS)
    @pytest.mark.parametrize("mode", faults.MODES)
    def test_never_wrong_and_never_5xx(
        self, snapshot_path, bodies, baseline, seam, mode
    ):
        responses = _boot_and_fire(
            snapshot_path, bodies, seam=seam, mode=mode, every=2
        )
        for (status, headers, payload), clean in zip(responses, baseline):
            assert status in ALLOWED_STATUSES, (
                f"{seam}/{mode}: status {status} outside 200/206/429: {payload}"
            )
            if status == 429:
                # Sheds carry an actionable Retry-After and a reason.
                assert float(headers["retry-after"]) > 0.0
                assert payload["reason"] in (
                    "queue_full",
                    "rate_limited",
                    "breaker_open",
                )
                continue
            if status == 200:
                # Unflagged ⇒ certified ⇒ must equal the clean answer.
                assert payload["degraded"] is False
                _assert_result_matches(payload["result"], clean)
            else:
                # 206 ⇒ the report must actually claim degradation.
                assert payload["degraded"] is True
                assert payload["report"]["degraded"] is True

    @pytest.mark.parametrize("mode", faults.MODES)
    def test_queue_seam_sheds_deterministically(
        self, snapshot_path, bodies, mode
    ):
        responses = _boot_and_fire(
            snapshot_path, bodies, seam="queue", mode=mode, every=2
        )
        statuses = [status for status, _, _ in responses]
        assert statuses[0] == 429  # the seam fires on the first probe call
        assert 429 in statuses and 200 in statuses
        assert set(statuses) <= {200, 429}

    @pytest.mark.parametrize("mode", ("nan", "overflow", "raise"))
    def test_handler_explosions_never_5xx(
        self, snapshot_path, bodies, baseline, mode
    ):
        responses = _boot_and_fire(
            snapshot_path, bodies, seam="handler", mode=mode, every=1
        )
        statuses = [status for status, _, _ in responses]
        assert set(statuses) <= ALLOWED_STATUSES
        if mode == "raise":
            # Every attempt explodes: nothing may come back clean.
            for status, _, payload in responses:
                if status != 429:
                    assert status == 206 and payload["degraded"] is True


class TestServeLoad:
    def test_burst_bounded_p99_and_nonzero_shed_degraded(
        self, snapshot_path, bodies
    ):
        app = ServeApp.from_snapshots(
            {"default": snapshot_path},
            admission=AdmissionController(max_concurrency=2, max_queue=2),
            retry_policy=RetryPolicy(backoff_s=0.0, hedge_delay_s=0.0),
        )
        burst = [dict(bodies[i % len(bodies)]) for i in range(40)]

        async def one(host, port, body):
            started = time.perf_counter()
            status, _, raw = await request(
                host, port, "POST", "/query", body=body
            )
            return status, json.loads(raw), time.perf_counter() - started

        async def go():
            server = await start_server(app)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with faults.inject("handler", "raise", every=2):
                    outcomes = await asyncio.gather(
                        *(one(host, port, body) for body in burst)
                    )
                metrics_status, _, metrics_raw = await request(
                    host, port, "GET", "/metrics"
                )
            finally:
                server.close()
                await server.wait_closed()
            return outcomes, metrics_status, metrics_raw.decode()

        with obs.enabled_scope(True), obs.scope():
            try:
                outcomes, metrics_status, metrics_text = asyncio.run(go())
            finally:
                app.close()

        statuses = [status for status, _, _ in outcomes]
        latencies = sorted(duration for _, _, duration in outcomes)
        assert set(statuses) <= ALLOWED_STATUSES
        # The tiny envelope must shed, the fault seam must degrade, and
        # the clean path must still answer.
        assert statuses.count(429) > 0
        assert statuses.count(206) > 0
        assert statuses.count(200) > 0
        # Bounded tail: admission keeps queueing out of the latency
        # path, so even the p99 of a 20x-oversubscribed burst is tame.
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        assert p99 < 5.0
        # The exported metrics agree with the observed statuses.
        assert metrics_status == 200

        def metric_value(family: str) -> float:
            for line in metrics_text.splitlines():
                if line.startswith(family + " "):
                    return float(line.split()[1])
            return 0.0

        assert metric_value("repro_serve_responses_shed_total") > 0
        assert metric_value("repro_serve_responses_degraded_total") > 0
        assert metric_value("repro_serve_admission_admitted_total") > 0
        assert "repro_serve_latency_s" in metrics_text

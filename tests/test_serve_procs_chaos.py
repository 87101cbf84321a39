"""SIGKILL chaos matrix for supervised multi-process serving.

Real worker processes die here.  A :class:`~repro.serve.supervisor.
Supervisor` is booted over a snapshot shard and a streaming index,
query+mutate load runs against it, and workers are SIGKILLed mid-load
(directly by pid, and through the ``worker_kill`` / ``worker_heartbeat``
fault seams).  The standing degradation invariant is asserted end to
end:

- every response status stays in {200, 206, 429, 503};
- every *unflagged* (``degraded: false``) answer is bitwise equal to
  the fault-free single-process baseline over the same snapshot;
- no acked mutation is lost (it survives a post-mortem WAL replay) or
  doubled (ack seqs are unique and account for every durable append);
- the supervisor converges back to full worker quorum.

Worker boot costs ~1s (numpy import), so the suite keeps to a handful
of supervisor boots with small shards.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.obs import names
from repro.robust import faults
from repro.serve.app import ServeApp
from repro.serve.smoke import request, run_smoke
from repro.serve.supervisor import Supervisor, SupervisorConfig
from repro.stream.engine import StreamingIndex

N, DIMENSION, K = 80, 3, 4
QUERIES = 6

#: Converging back to quorum after a SIGKILL must fit a respawn plus
#: one worker boot (~1s numpy import) with generous CI headroom.
CONVERGE_S = 30.0


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=11)


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory):
    tree = SSTree.bulk_load(dataset.items(), max_entries=8)
    path = tmp_path_factory.mktemp("procs") / "fixture.snap"
    snapshot_io.save(tree, path)
    return str(path)


@pytest.fixture(scope="module")
def query_bodies(dataset):
    spheres = knn_queries(dataset, count=QUERIES, seed=5)
    return [
        {
            "kind": "knn",
            "index": "default",
            "center": [float(c) for c in sphere.center],
            "radius": float(sphere.radius),
            "k": K,
        }
        for sphere in spheres
    ]


@pytest.fixture(scope="module")
def baseline(snapshot_path, query_bodies):
    """Fault-free single-process answers, keyed by query position.

    Workers run the very same :class:`ServeApp` handler stack, so a
    supervised unflagged answer must be *bitwise* equal to this.
    """
    from repro.serve.protocol import HttpRequest

    app = ServeApp.from_snapshots({"default": snapshot_path})

    async def go():
        answers = []
        for body in query_bodies:
            response = await app.handle(
                HttpRequest(
                    method="POST",
                    path="/query",
                    query={},
                    headers={},
                    body=json.dumps(body).encode(),
                )
            )
            payload = json.loads(response.body)
            assert response.status == 200 and payload["degraded"] is False
            answers.append(payload["result"])
        return answers

    try:
        return asyncio.run(go())
    finally:
        app.close(drain_s=0.0)


@pytest.fixture()
def stream_dir(tmp_path, dataset):
    directory = str(tmp_path / "stream")
    StreamingIndex.create(
        directory, list(dataset.items()), kind="sstree"
    ).close()
    return directory


def run_supervised(config: SupervisorConfig, scenario):
    """Boot a supervisor, run ``await scenario(sup, host, port)``, drain."""

    async def go():
        sup = Supervisor(config)
        host, port = await sup.start()
        try:
            return await scenario(sup, host, port)
        finally:
            await sup.drain_and_stop()

    with obs.enabled_scope(True), obs.scope():
        return asyncio.run(go()), obs.collect()


async def wait_for_quorum(host, port, *, full: bool = True) -> dict:
    """Poll /readyz until ready (and at full strength), else fail."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CONVERGE_S
    body: dict = {}
    while loop.time() < deadline:
        status, _, raw = await request(host, port, "GET", "/readyz")
        body = json.loads(raw)
        workers = body["workers"]
        converged = body["ready"] and (
            not full
            or workers["query"]["live"] == workers["query"]["total"]
        )
        if status == 200 and converged:
            return body
        await asyncio.sleep(0.1)
    raise AssertionError(f"quorum never converged: {body}")


def check_invariant(responses, baseline):
    """The degradation invariant over collected (status, payload) pairs."""
    assert responses, "no load was applied"
    for status, _ in responses:
        assert status in {200, 206, 429, 503}, responses
    exact = 0
    for status, payload in responses:
        if status == 200 and payload.get("degraded") is False:
            assert payload["result"] == baseline[payload["_position"]]
            exact += 1
    return exact


class TestSigkillMatrix:
    def test_kills_mid_load_keep_answers_exact_and_acks_durable(
        self, snapshot_path, stream_dir, query_bodies, baseline
    ):
        config = SupervisorConfig(
            query_workers=2,
            snapshots={"default": snapshot_path},
            streams={"live": stream_dir},
            heartbeat_s=0.25,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
            drain_s=2.0,
        )
        acked: "list[tuple[int, object]]" = []
        mutation_statuses: "list[int]" = []

        async def scenario(sup: Supervisor, host, port):
            await wait_for_quorum(host, port)
            responses = []
            for round_no in range(3):
                for position, body in enumerate(query_bodies):
                    status, _, raw = await request(
                        host, port, "POST", "/query", body=body
                    )
                    payload = json.loads(raw) if raw else {}
                    payload["_position"] = position
                    responses.append((status, payload))
                key = f"chaos-{round_no}"
                status, _, raw = await request(
                    host, port, "POST", "/mutate",
                    body={
                        "index": "live",
                        "op": "insert",
                        "key": key,
                        "center": [50.0 + round_no, 50.0, 50.0],
                        "radius": 0.25,
                    },
                )
                mutation_statuses.append(status)
                if status == 200:
                    ack = json.loads(raw)
                    assert ack["acked"] is True
                    acked.append((ack["seq"], key))
                if round_no == 0:
                    os.kill(sup.worker_pids("query")[0], signal.SIGKILL)
                elif round_no == 1:
                    os.kill(sup.worker_pids("mutation")[0], signal.SIGKILL)
            converged = await wait_for_quorum(host, port)
            assert converged["workers"]["mutation"]["live"] is True
            restarts = sum(s["restarts"] for s in converged["workers"]["slots"])
            assert restarts >= 2  # both kills healed
            return responses

        responses, metrics = run_supervised(config, scenario)
        exact = check_invariant(responses, baseline)
        assert exact >= len(query_bodies)  # plenty of unflagged answers
        for status in mutation_statuses:
            assert status in {200, 429, 503}

        # Acked mutations: unique seqs (never doubled), and every ack
        # survives a post-mortem replay of the WAL (never lost).
        assert acked, "no mutation was ever acked"
        seqs = [seq for seq, _ in acked]
        assert len(set(seqs)) == len(seqs)
        replayed = StreamingIndex.open(stream_dir)
        try:
            assert replayed.last_seq >= max(seqs)
            surviving = {key for key, _ in replayed.effective_entries()}
            for _, key in acked:
                assert key in surviving
        finally:
            replayed.close()

        counters = metrics["counters"]
        assert counters.get(names.SERVE_WORKERS_EXITS, 0) >= 2
        assert counters.get(names.SERVE_WORKERS_RESPAWNS, 0) >= 2
        assert counters.get(names.SERVE_WORKERS_DRAINED) == 1


class TestWorkerKillSeam:
    def test_induced_kills_before_dispatch_fail_over(
        self, snapshot_path, query_bodies, baseline
    ):
        config = SupervisorConfig(
            query_workers=2,
            snapshots={"default": snapshot_path},
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
        )

        async def scenario(sup: Supervisor, host, port):
            await wait_for_quorum(host, port)
            responses = []
            with faults.inject("worker_kill", "nan", every=4):
                for position, body in enumerate(query_bodies * 2):
                    status, _, raw = await request(
                        host, port, "POST", "/query", body=body
                    )
                    payload = json.loads(raw) if raw else {}
                    payload["_position"] = position % len(query_bodies)
                    responses.append((status, payload))
            await wait_for_quorum(host, port)
            return responses

        responses, metrics = run_supervised(config, scenario)
        check_invariant(responses, baseline)
        counters = metrics["counters"]
        assert counters.get(names.SERVE_WORKERS_KILLS, 0) >= 1
        assert counters.get(names.SERVE_WORKERS_FAILOVERS, 0) >= 1
        assert names.fault("worker_kill", "nan") in counters


class TestSmokeWorkersMode:
    def test_supervised_smoke_defaults_to_the_kill_seam_and_passes(self):
        summary = run_smoke(requests=9, every=4, seed=3, workers=2)
        assert summary["ok"], summary
        assert summary["workers"] == 2
        assert summary["seam"] == "worker_kill"
        assert summary["readyz_status"] == 200


class TestWorkerHeartbeatSeam:
    def test_heartbeat_misses_sigkill_and_respawn(self, snapshot_path):
        config = SupervisorConfig(
            query_workers=1,
            snapshots={"default": snapshot_path},
            heartbeat_s=0.1,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
        )

        async def scenario(sup: Supervisor, host, port):
            await wait_for_quorum(host, port)
            with faults.inject("worker_heartbeat", "raise") as handle:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 5.0
                while handle.hits == 0 and loop.time() < deadline:
                    await asyncio.sleep(0.05)
                assert handle.hits >= 1
            # Seam restored: the killed worker respawns and /readyz
            # converges back to quorum.
            converged = await wait_for_quorum(host, port)
            assert sum(
                s["restarts"] for s in converged["workers"]["slots"]
            ) >= 1

        _, metrics = run_supervised(config, scenario)
        counters = metrics["counters"]
        assert counters.get(names.SERVE_WORKERS_HEARTBEAT_MISSES, 0) >= 1
        assert counters.get(names.SERVE_WORKERS_KILLS, 0) >= 1
        assert counters.get(names.SERVE_WORKERS_RESPAWNS, 0) >= 1


class TestUnrunnableCriterion:
    def test_is_a_400_and_every_worker_survives(
        self, snapshot_path, query_bodies, baseline
    ):
        # A criterion the query kind cannot run ("verified" has no batch
        # kernel for dominating; "nope" is not registered) used to crash
        # the worker, and failover then crashed its sibling too.
        config = SupervisorConfig(
            query_workers=2,
            snapshots={"default": snapshot_path},
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
        )
        bad_bodies = [
            dict(query_bodies[0], kind="dominating", criterion="verified"),
            dict(query_bodies[0], criterion="nope"),
            dict(query_bodies[0], kind="rknn", criterion="nope"),
        ]

        async def scenario(sup: Supervisor, host, port):
            await wait_for_quorum(host, port)
            pids = sorted(sup.worker_pids())
            rejected = []
            for body in bad_bodies:
                status, _, raw = await request(
                    host, port, "POST", "/query", body=body
                )
                rejected.append((status, json.loads(raw)["error"]))
            status, _, raw = await request(
                host, port, "POST", "/query", body=query_bodies[0]
            )
            return pids, rejected, sorted(sup.worker_pids()), status, raw

        (before, rejected, after, status, raw), _ = run_supervised(
            config, scenario
        )
        assert rejected == [(400, "validation")] * len(bad_bodies)
        assert after == before
        assert status == 200
        assert json.loads(raw)["result"] == baseline[0]

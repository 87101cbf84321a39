"""The pooled server's event log and boot metrics.

Real worker processes boot here (each forked from the supervisor, in
milliseconds).  A supervised request is logged by the same front-end
code as a single-process one (``repro serve --workers N --event-log``),
so every query leaves one line carrying its tenant class and HTTP
status, and ``/metrics`` shows each worker's spawn-to-ready time.
"""

from __future__ import annotations

import asyncio
import json

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.obs import export as obs_export
from repro.serve.smoke import request
from repro.serve.supervisor import Supervisor, SupervisorConfig


def test_supervised_queries_are_logged_with_tenant_and_status(tmp_path):
    path = str(tmp_path / "shard.snap")
    snapshot_io.save(SSTree.bulk_load(synthetic_dataset(60, 3, seed=2).items()), path)
    log_path = str(tmp_path / "events.jsonl")
    sup = Supervisor(
        SupervisorConfig(
            query_workers=1, snapshots={"default": path}, event_log=log_path
        )
    )
    body = {
        "kind": "knn", "index": "default",
        "center": [100.0, 100.0, 100.0], "radius": 1.0, "k": 3,
    }
    tenants = ("interactive", "standard", "batch")

    async def go():
        host, port = await sup.start()
        try:
            return [
                await request(
                    host, port, "POST", "/query", body=body,
                    headers={"x-tenant-class": tenant},
                )
                for tenant in tenants
            ]
        finally:
            await sup.drain_and_stop()

    responses = asyncio.run(go())
    assert [status for status, _, _ in responses] == [200, 200, 200]
    events = obs_export.read_events(log_path)
    assert [event.tenant for event in events] == list(tenants)
    assert [event.status for event in events] == [200, 200, 200]
    assert {event.kind for event in events} == {"serve.knn"}
    answered = len(json.loads(responses[0][2])["result"]["keys"])
    assert events[0].answer_size == answered


def test_metrics_show_each_worker_boot_time(tmp_path):
    path = str(tmp_path / "shard.snap")
    snapshot_io.save(SSTree.bulk_load(synthetic_dataset(60, 3, seed=2).items()), path)
    sup = Supervisor(SupervisorConfig(query_workers=2, snapshots={"default": path}))

    async def go():
        host, port = await sup.start()
        try:
            return await request(host, port, "GET", "/metrics")
        finally:
            await sup.drain_and_stop()

    with obs.enabled_scope(True), obs.scope():
        status, _, raw = asyncio.run(go())
    assert status == 200
    text = raw.decode()
    assert "# TYPE repro_serve_workers_boot_s summary" in text
    assert "repro_serve_workers_boot_s_count 2" in text
    boot_s = float(text.split("repro_serve_workers_boot_s_sum ")[1].split()[0])
    assert 0.0 < boot_s < 2 * sup.config.ready_timeout_s

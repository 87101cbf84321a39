"""The pooled server's event log (``repro serve --workers N --event-log``).

One real worker process boots here (~1 s): a supervised request is
logged by the same front-end code as a single-process one, so every
query leaves one line carrying its tenant class and HTTP status.
"""

from __future__ import annotations

import asyncio
import json

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

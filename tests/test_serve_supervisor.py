"""Unit tests for the multi-process serving supervisor.

Everything here is fast and (mostly) subprocess-free: the worker pipe
framing, the WAL owner lock, the dispatch-timeout budget helper, the
graceful-drain plumbing of :class:`~repro.serve.app.ServeApp`, the
respawn flap cap (driven through the ``worker_spawn`` fault seam, which
fails the fork before any process exists), the mutation seq-hint dedup
decision, and the /readyz quorum arithmetic.  The end-to-end SIGKILL
matrix over real worker processes lives in
``tests/test_serve_procs_chaos.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro import obs
from repro.exceptions import ProtocolError, ServeError, StreamError, WalError
from repro.obs import names
from repro.resilience.budget import Budget
from repro.resilience.partial import PartialResult, ResilienceReport
from repro.robust import faults
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    HttpRequest,
    encode_frame,
    read_frame,
    read_frame_async,
)
from repro.serve.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerSlot,
    WorkerUnavailable,
)
from repro.serve.retry import is_transient
from repro.serve.tenancy import TenantPolicy, default_classes
from repro.stream.wal import WriteAheadLog


# ----------------------------------------------------------------------
# The worker's frame path (in process, no subprocess)
# ----------------------------------------------------------------------
def serve_in_process(app, frames, role):
    """Run ``serve_frames`` over *frames*; the replies and new threads."""
    from repro.serve.worker import serve_frames

    stdin = io.BytesIO(b"".join(encode_frame(frame) for frame in frames))
    stdout = io.BytesIO()
    before = set(threading.enumerate())
    try:
        serve_frames(app, stdin, stdout, role)
        started = [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-serve")
        ]
    finally:
        app.close(drain_s=0.0)
    stdout.seek(0)
    replies = []
    while (frame := read_frame(stdout)) is not None:
        replies.append(frame)
    return replies, started


class TestWorkerFrameThread:
    @pytest.fixture()
    def query_worker(self, tmp_path):
        from repro.data.synthetic import synthetic_dataset
        from repro.index import snapshot as snapshot_io
        from repro.index.sstree import SSTree
        from repro.serve.worker import build_worker_app

        path = str(tmp_path / "shard.snap")
        tree = SSTree.bulk_load(synthetic_dataset(40, 3, seed=3).items())
        snapshot_io.save(tree, path)
        return build_worker_app({"role": "query", "snapshots": {"default": path}})

    @staticmethod
    def query_frame(frame_id, center, tenant="standard"):
        return {
            "op": "query", "id": frame_id, "tenant": tenant,
            "params": {
                "kind": "knn", "index": "default", "center": center,
                "radius": 1.0, "k": 3, "criterion": "hyperbola",
            },
        }

    def test_requests_run_on_the_frame_thread(self, tmp_path):
        # A worker serves one frame at a time, so its query attempts and
        # mutations run on the thread that read the frame: no executor
        # thread is ever started.
        from repro.data.synthetic import synthetic_dataset
        from repro.stream.engine import StreamingIndex
        from repro.serve.worker import build_worker_app

        directory = str(tmp_path / "live")
        items = list(synthetic_dataset(40, 2, seed=3).items())
        StreamingIndex.create(directory, items, kind="sstree").close()
        frames = [
            {"op": "query", "id": 1, "tenant": "standard",
             "params": {"kind": "rknn", "index": "live", "center": [100.0, 100.0],
                        "radius": 2.0, "k": 1, "criterion": "hyperbola"}},
            {"op": "mutate", "id": 2, "index": "live",
             "mutation": {"op": "insert", "key": "fresh",
                          "center": [90.0, 95.0], "radius": 1.0}},
            {"op": "shutdown", "id": 3},
        ]
        app = build_worker_app({"role": "mutation", "streams": {"live": directory}})
        replies, started = serve_in_process(app, frames, "mutation")
        assert [reply["op"] for reply in replies] == [
            "ready", "answer", "acked", "bye",
        ]
        assert replies[0]["indexes"]["live"]["dimension"] == 2
        assert [reply["id"] for reply in replies[1:]] == [1, 2, 3]
        assert replies[1]["report"]["degraded"] is False
        assert replies[1]["size"] == len(replies[1]["value"])
        assert replies[2]["seq"] == replies[0]["last_seq"]["live"] + 1
        assert started == []

    def test_wrong_dimension_is_a_validation_reply_and_serving_goes_on(
        self, query_worker
    ):
        frames = [
            self.query_frame(1, [1.0, 2.0]),  # the shard is 3-d
            self.query_frame(2, [100.0, 100.0, 100.0]),
            {"op": "shutdown", "id": 3},
        ]
        replies, _ = serve_in_process(query_worker, frames, "query")
        assert replies[1]["op"] == "error"
        assert replies[1]["error"] == "validation"
        assert "dimension" in replies[1]["message"]
        assert replies[2]["op"] == "answer"
        assert replies[2]["size"] == len(replies[2]["value"]["keys"]) >= 3

    def test_a_library_error_is_a_typed_reply_not_a_dead_worker(
        self, query_worker, monkeypatch
    ):
        import repro.serve.app as app_module

        def closed(state, params):
            raise StreamError("streaming index is closed")

        monkeypatch.setattr(app_module, "_execute_query", closed)
        frames = [self.query_frame(1, [100.0, 100.0, 100.0]), {"op": "ping", "id": 2}]
        replies, _ = serve_in_process(query_worker, frames, "query")
        assert replies[1]["op"] == "error"
        assert replies[1]["error"] == "StreamError"
        assert replies[2]["op"] == "pong"

    def test_handler_fault_reply_is_transient_so_the_front_retries(
        self, query_worker
    ):
        frames = [self.query_frame(1, [100.0, 100.0, 100.0])]
        with faults.inject("handler", "raise"):
            replies, _ = serve_in_process(query_worker, frames, "query")
        reply = replies[1]
        assert reply["op"] == "answer"
        assert reply["value"] == [] and reply["size"] == 0
        assert reply["report"]["exhausted"] == "fault"
        assert reply["report"]["absorbed_faults"] == 1
        outcome = PartialResult(
            reply["value"], ResilienceReport.from_dict(reply["report"])
        )
        assert is_transient(outcome)


# ----------------------------------------------------------------------
# Worker pipe framing
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip(self):
        payload = {"op": "request", "id": 7, "body": "x" * 500}
        stream = io.BytesIO(encode_frame(payload) + encode_frame({"op": "ping"}))
        assert read_frame(stream) == payload
        assert read_frame(stream) == {"op": "ping"}

    def test_clean_eof_is_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_mid_header_eof_raises(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_mid_body_eof_raises(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(frame[:-1]))

    def test_non_object_payload_raises(self):
        body = b"[1, 2]"
        framed = len(body).to_bytes(4, "big") + body
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(framed))

    def test_oversized_frame_rejected_both_ways(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(huge + b"x"))
        with pytest.raises(ProtocolError):
            encode_frame({"pad": "x" * MAX_FRAME_BYTES})

    def test_async_reader_matches_sync(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "pong", "id": 3}))
            reader.feed_eof()
            first = await read_frame_async(reader)
            second = await read_frame_async(reader)
            return first, second

        first, second = asyncio.run(go())
        assert first == {"op": "pong", "id": 3}
        assert second is None

    def test_async_reader_mid_frame_raises(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "pong"})[:-2])
            reader.feed_eof()
            await read_frame_async(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(go())


# ----------------------------------------------------------------------
# WAL owner lock (the mutation worker's exclusivity)
# ----------------------------------------------------------------------
class TestWalOwnerLock:
    def test_second_exclusive_open_refused_while_held(self, tmp_path):
        first = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        try:
            with pytest.raises(WalError):
                WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        finally:
            first.close()
        # Released on close: the next owner acquires it cleanly.
        second = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        second.close()

    def test_non_exclusive_open_ignores_the_lock(self, tmp_path):
        owner = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        try:
            reader = WriteAheadLog.open(str(tmp_path / "wal"))
            reader.close()
        finally:
            owner.close()


# ----------------------------------------------------------------------
# Budget.remaining_s (sizes per-attempt dispatch timeouts)
# ----------------------------------------------------------------------
class TestBudgetRemaining:
    def test_unbounded_budget_has_no_remaining(self):
        assert Budget().remaining_s() is None

    def test_counts_down_and_clamps_at_zero(self):
        budget = Budget(deadline_s=0.05).start()
        first = budget.remaining_s()
        assert first is not None and 0.0 < first <= 0.05
        time.sleep(0.06)
        assert budget.remaining_s() == 0.0

    def test_lazily_starts_on_first_read(self):
        budget = Budget(deadline_s=1.0)
        assert not budget.started
        remaining = budget.remaining_s()
        assert budget.started
        assert remaining is not None and remaining > 0.5

    def test_broken_clock_reads_as_zero(self):
        budget = Budget(deadline_s=10.0).start()
        with faults.inject("clock", "raise"):
            assert budget.remaining_s() == 0.0


# ----------------------------------------------------------------------
# ServeApp graceful drain (single-process close contract)
# ----------------------------------------------------------------------
class TestServeAppDrain:
    def _app(self) -> ServeApp:
        return ServeApp(
            policy=TenantPolicy(default_classes()),
            admission=AdmissionController(max_concurrency=2, max_queue=4),
        )

    def test_close_waits_for_in_flight_work(self):
        app = self._app()
        app.admission._in_flight = 1

        def finish_soon():
            time.sleep(0.05)
            app.admission._in_flight = 0

        settler = threading.Thread(target=finish_soon)
        started = time.monotonic()
        settler.start()
        app.close(drain_s=5.0)
        settler.join()
        elapsed = time.monotonic() - started
        assert 0.04 <= elapsed < 1.0  # waited for the work, not the deadline
        assert app.draining

    def test_close_gives_up_at_the_deadline(self):
        app = self._app()
        app.admission._in_flight = 1
        with obs.enabled_scope(True), obs.scope():
            started = time.monotonic()
            app.close(drain_s=0.1)
            elapsed = time.monotonic() - started
            counters = obs.collect()["counters"]
        app.admission._in_flight = 0
        assert elapsed >= 0.1
        assert counters.get(names.SERVE_WORKERS_DRAIN_TIMEOUTS) == 1

    def test_draining_app_503s_new_work_and_fails_readyz(self):
        app = self._app()

        async def go():
            request_cls = __import__(
                "repro.serve.protocol", fromlist=["HttpRequest"]
            ).HttpRequest
            app._draining = True
            query = request_cls(
                method="POST",
                path="/query",
                query={},
                headers={},
                body=json.dumps({"index": "default"}).encode(),
            )
            mutate = request_cls(
                method="POST", path="/mutate", query={}, headers={},
                body=query.body,
            )
            ready = request_cls(
                method="GET", path="/readyz", query={}, headers={}
            )
            return (
                await app.handle(query),
                await app.handle(mutate),
                await app.handle(ready),
            )

        q, m, r = asyncio.run(go())
        app._draining = False
        app.close(drain_s=0.0)
        assert q.status == 503 and json.loads(q.body)["error"] == "draining"
        assert m.status == 503 and json.loads(m.body)["error"] == "draining"
        assert r.status == 503 and json.loads(r.body)["draining"] is True


# ----------------------------------------------------------------------
# Circuit breaker: the half-open probe quota is a hard cap (threaded)
# ----------------------------------------------------------------------
class TestBreakerProbeCapUnderThreads:
    @pytest.mark.parametrize("half_open_probes", [1, 3])
    def test_concurrent_allow_admits_at_most_the_quota(
        self, half_open_probes
    ):
        breaker = CircuitBreaker(
            "x",
            failure_threshold=1,
            recovery_s=0.01,
            half_open_probes=half_open_probes,
        )
        breaker.record_failure()  # -> OPEN
        assert breaker.state is BreakerState.OPEN
        time.sleep(0.02)  # let the recovery window elapse

        n_threads = 16
        barrier = threading.Barrier(n_threads)
        admitted: "list[bool]" = [False] * n_threads

        def probe(i: int) -> None:
            barrier.wait()
            admitted[i] = breaker.allow()

        threads = [
            threading.Thread(target=probe, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.state is BreakerState.HALF_OPEN
        assert sum(admitted) == half_open_probes

    def test_settled_probe_reopens_or_closes_consistently(self):
        breaker = CircuitBreaker(
            "x", failure_threshold=1, recovery_s=0.01, half_open_probes=1
        )
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED


# ----------------------------------------------------------------------
# Supervisor internals (no real worker processes)
# ----------------------------------------------------------------------
def make_supervisor(**overrides) -> Supervisor:
    config = SupervisorConfig(
        query_workers=overrides.pop("query_workers", 2),
        snapshots=overrides.pop("snapshots", {"default": "/nonexistent.snap"}),
        streams=overrides.pop("streams", {}),
        **overrides,
    )
    return Supervisor(config)


class TestSupervisorValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ServeError):
            make_supervisor(query_workers=0)

    def test_no_shards_rejected(self):
        with pytest.raises(ServeError):
            Supervisor(SupervisorConfig(query_workers=1))


def query_request(body=None):
    return HttpRequest(
        method="POST", path="/query", query={}, headers={},
        body=json.dumps(body or {
            "kind": "knn", "index": "default",
            "center": [0.0, 0.0, 0.0], "radius": 0.1, "k": 2,
        }).encode(),
    )


class TestPoolFailover:
    def _pool(self, answering):
        """Two ready query slots; *answering* slot numbers reply."""
        sup = make_supervisor(query_workers=2)
        for i in range(2):
            sup._slots.append(WorkerSlot(slot=i, role="query", state="ready"))
        sent: "list[int]" = []

        async def fake_dispatch(slot, frame, timeout):
            sent.append(slot.slot)
            if slot.slot not in answering:
                raise WorkerUnavailable(f"worker {slot.slot} lost")
            return {
                "op": "answer", "id": frame.get("id"), "report": None,
                "value": {"keys": [7, 9], "distk": 0.5}, "size": 2,
            }

        sup._dispatch = fake_dispatch  # type: ignore[method-assign]
        return sup, sent

    def test_a_lost_dispatch_is_resent_once_to_the_other_worker(self):
        sup, sent = self._pool(answering={0})
        sup._rr = 0  # round robin picks slot 1 first
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(query_request()))
            counters = obs.collect()["counters"]
        assert sent == [1, 0]
        assert response.status == 200
        body = json.loads(response.body)
        assert body["result"] == {"keys": [7, 9], "distk": 0.5}
        assert body["degraded"] is False and body["attempts"] == 1
        assert counters.get(names.SERVE_WORKERS_FAILOVERS) == 1

    def test_no_worker_answering_is_a_503_that_spares_the_breaker(self):
        sup, sent = self._pool(answering=set())

        async def go():
            return [await sup.handle(query_request()) for _ in range(6)]

        with obs.enabled_scope(True), obs.scope():
            responses = asyncio.run(go())
            counters = obs.collect()["counters"]
        assert len(sent) == 12  # each request: one dispatch, one re-send
        for response in responses:
            assert response.status == 503
            assert json.loads(response.body)["error"] == "worker_unavailable"
            assert float(response.headers["Retry-After"]) > 0.0
        assert counters.get(names.SERVE_WORKERS_FAILOVERS) == 6
        # Six lost workers in a row are not index damage.
        assert sup.indexes["default"].breaker.state is BreakerState.CLOSED


class TestRespawnFlapCap:
    def test_persistently_failing_spawn_hits_the_flap_cap(self):
        sup = make_supervisor(
            query_workers=1,
            backoff_base_s=0.001,
            backoff_cap_s=0.002,
            flap_window_s=30.0,
            flap_max=3,
        )
        slot = WorkerSlot(slot=0, role="query")
        sup._slots.append(slot)

        async def go():
            with faults.inject("worker_spawn", "raise") as handle:
                await sup._boot(slot)
                deadline = asyncio.get_running_loop().time() + 5.0
                while slot.state != "failed":
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                return handle.hits

        with obs.enabled_scope(True), obs.scope():
            hits = asyncio.run(go())
            counters = obs.collect()["counters"]
        assert slot.state == "failed"
        assert hits >= 3  # first boot + the capped respawn attempts
        assert counters.get(names.SERVE_WORKERS_FLAP_CAPPED) == 1
        assert counters.get(names.SERVE_WORKERS_SPAWN_FAILURES, 0) >= 3
        assert names.fault("worker_spawn", "raise") in counters


class TestMutationSeqDedup:
    MUTATION = {
        "index": "live", "op": "insert", "key": "k9",
        "center": [1.0, 2.0, 3.0], "radius": 0.5,
    }

    def _sup_with_mutation_slot(self, last_acked: int, recovered: int):
        sup = make_supervisor(
            query_workers=1,
            snapshots={"default": "/nonexistent.snap"},
            streams={"live": "/nonexistent-stream"},
        )
        slot = WorkerSlot(slot=0, role="mutation", state="ready")
        slot.last_seq = {"live": recovered}
        sup._mutation_slot = slot
        sup._slots.append(slot)
        sup._last_acked["live"] = last_acked
        return sup, slot

    def _mutate(self, sup, replies):
        """POST one mutation; the dispatch loses its worker first, then
        answers from *replies* (an exhausted list fails the test)."""
        dispatched: "list[dict]" = []

        async def fake_dispatch(slot_, frame_, timeout):
            dispatched.append(frame_)
            if len(dispatched) == 1:
                raise WorkerUnavailable("mutation worker died mid-append")
            return replies.pop(0)

        sup._dispatch = fake_dispatch  # type: ignore[method-assign]
        request = HttpRequest(
            method="POST", path="/mutate", query={}, headers={},
            body=json.dumps(self.MUTATION).encode(),
        )
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(request))
            counters = obs.collect()["counters"]
        return response, dispatched, counters

    def test_durable_inflight_mutation_is_reacked_not_resent(self):
        # Handshake seq ABOVE the last ack: the crashed worker's append
        # hit the fsynced WAL, so the supervisor must re-ack, not
        # resend (a resend would apply the mutation twice).
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=5)
        response, dispatched, counters = self._mutate(sup, replies=[])
        body = json.loads(response.body)
        assert response.status == 200
        assert body["acked"] is True
        assert body["seq"] == 5
        assert body["recovered"] is True
        assert body["key"] == "k9"
        assert len(dispatched) == 1  # the lost original, no resend
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_REACKED) == 1
        assert names.SERVE_WORKERS_MUTATIONS_RESENT not in counters

    def test_lost_inflight_mutation_is_resent_once(self):
        # Handshake seq AT the last ack: the append provably never
        # reached the log — resend exactly once.
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        response, dispatched, counters = self._mutate(
            sup, replies=[{"op": "acked", "seq": 5}]
        )
        assert response.status == 200
        assert json.loads(response.body)["seq"] == 5
        assert "recovered" not in json.loads(response.body)
        assert len(dispatched) == 2  # the lost original plus one resend
        assert dispatched[1] == dispatched[0]
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_RESENT) == 1
        assert names.SERVE_WORKERS_MUTATIONS_REACKED not in counters

    def test_unrecovered_worker_is_an_honest_unacked_503(self):
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        slot.state = "failed"
        response, dispatched, _ = self._mutate(sup, replies=[])
        body = json.loads(response.body)
        assert response.status == 503
        assert body["acked"] is False
        assert len(dispatched) == 1


class TestReadyzQuorum:
    def _sup_with_states(self, states, mutation_state=None) -> Supervisor:
        sup = make_supervisor(
            query_workers=max(len(states), 1),
            streams=(
                {"live": "/nonexistent-stream"} if mutation_state else {}
            ),
        )
        for i, state in enumerate(states):
            sup._slots.append(WorkerSlot(slot=i, role="query", state=state))
        if mutation_state is not None:
            slot = WorkerSlot(
                slot=len(states), role="mutation", state=mutation_state
            )
            sup._mutation_slot = slot
            sup._slots.append(slot)
        return sup

    def test_majority_live_is_ready(self):
        sup = self._sup_with_states(["ready", "ready", "dead"])
        response = sup._readyz()
        body = json.loads(response.body)
        assert response.status == 200
        assert body["ready"] is True
        assert body["workers"]["query"] == {
            "total": 3, "live": 2, "quorum": 2,
        }

    def test_minority_live_is_not_ready(self):
        sup = self._sup_with_states(["ready", "dead", "dead"])
        response = sup._readyz()
        body = json.loads(response.body)
        assert response.status == 503
        assert body["ready"] is False

    def test_dead_mutation_worker_blocks_readiness(self):
        sup = self._sup_with_states(["ready", "ready"], mutation_state="dead")
        body = json.loads(sup._readyz().body)
        assert body["ready"] is False
        assert body["workers"]["mutation"] == {"live": False}

    def test_draining_is_never_ready(self):
        sup = self._sup_with_states(["ready", "ready"])
        sup.request_drain()
        body = json.loads(sup._readyz().body)
        assert body["ready"] is False
        assert body["draining"] is True

    def test_slots_snapshot_lists_every_worker(self):
        sup = self._sup_with_states(["ready", "failed"])
        snapshot = sup.slots_snapshot()
        assert [s["state"] for s in snapshot] == ["ready", "failed"]

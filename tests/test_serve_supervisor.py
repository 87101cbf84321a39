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
from repro.exceptions import ProtocolError, ServeError, WalError
from repro.obs import names
from repro.resilience.budget import Budget
from repro.robust import faults
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    read_frame_async,
)
from repro.serve.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerSlot,
    _worker_fault_outcome,
)
from repro.serve.retry import is_transient
from repro.serve.tenancy import TenantPolicy, default_classes
from repro.stream.wal import WriteAheadLog


# ----------------------------------------------------------------------
# The worker's thread model
# ----------------------------------------------------------------------
class TestWorkerFrameThread:
    def test_requests_run_on_the_frame_thread(self, tmp_path):
        # A worker serves one frame at a time, so its query attempts and
        # mutations run on the thread that read the frame: no executor
        # thread is ever started.
        from repro.data.synthetic import synthetic_dataset
        from repro.stream.engine import StreamingIndex
        from repro.serve.worker import build_worker_app, serve_frames

        directory = str(tmp_path / "live")
        items = list(synthetic_dataset(40, 2, seed=3).items())
        StreamingIndex.create(directory, items, kind="sstree").close()
        query = {
            "kind": "rknn", "index": "live", "center": [100.0, 100.0], "radius": 2.0,
        }
        mutation = {
            "index": "live", "op": "insert", "key": "fresh",
            "center": [90.0, 95.0], "radius": 1.0,
        }
        frames = [
            {"op": "request", "id": 1, "method": "POST", "path": "/query",
             "headers": {}, "body": json.dumps(query)},
            {"op": "request", "id": 2, "method": "POST", "path": "/mutate",
             "headers": {}, "body": json.dumps(mutation)},
            {"op": "shutdown", "id": 3},
        ]
        stdin = io.BytesIO(b"".join(encode_frame(frame) for frame in frames))
        stdout = io.BytesIO()
        before = set(threading.enumerate())
        app = build_worker_app({"role": "mutation", "streams": {"live": directory}})
        loop = asyncio.new_event_loop()
        try:
            serve_frames(app, loop, stdin, stdout, "mutation")
            started = [
                thread.name
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith("repro-serve")
            ]
        finally:
            loop.close()
            app.close()
        stdout.seek(0)
        replies = []
        while (frame := read_frame(stdout)) is not None:
            replies.append(frame)
        assert [reply["op"] for reply in replies] == [
            "ready", "response", "response", "bye",
        ]
        assert [reply["status"] for reply in replies[1:3]] == [200, 200]
        assert json.loads(replies[2]["body"])["acked"] is True
        assert started == []


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


class TestWorkerFaultOutcome:
    def test_is_transient_so_retry_fails_over(self):
        outcome = _worker_fault_outcome("worker 123 closed its pipe")
        assert is_transient(outcome)
        assert outcome.report.absorbed_faults == 1
        assert outcome.report.exhausted == "fault"


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

    def test_durable_inflight_mutation_is_reacked_not_resent(self):
        # Handshake seq ABOVE the last ack: the crashed worker's append
        # hit the fsynced WAL, so the supervisor must re-ack, not
        # resend (a resend would apply the mutation twice).
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=5)
        payload = {"index": "live", "op": "insert", "key": "k9"}
        frame = {"op": "request", "body": json.dumps(payload)}

        async def no_dispatch(*args, **kwargs):  # pragma: no cover
            raise AssertionError("re-ack path must not resend")

        sup._dispatch = no_dispatch  # type: ignore[method-assign]
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(
                sup._recover_mutation(slot, "live", payload, frame, 1.0)
            )
            counters = obs.collect()["counters"]
        body = json.loads(response.body)
        assert response.status == 200
        assert body["acked"] is True
        assert body["seq"] == 5
        assert body["recovered"] is True
        assert body["key"] == "k9"
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_REACKED) == 1
        assert names.SERVE_WORKERS_MUTATIONS_RESENT not in counters

    def test_lost_inflight_mutation_is_resent_once(self):
        # Handshake seq AT the last ack: the append provably never
        # reached the log — resend exactly once.
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        payload = {"index": "live", "op": "insert", "key": "k9"}
        frame = {"op": "request", "body": json.dumps(payload)}
        dispatched: "list[dict]" = []

        async def fake_dispatch(slot_, frame_, timeout):
            dispatched.append(frame_)
            return {
                "op": "response",
                "status": 200,
                "body": json.dumps({"acked": True, "seq": 5, "key": "k9"}),
            }

        sup._dispatch = fake_dispatch  # type: ignore[method-assign]
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(
                sup._recover_mutation(slot, "live", payload, frame, 1.0)
            )
            counters = obs.collect()["counters"]
        assert response.status == 200
        assert json.loads(response.body)["seq"] == 5
        assert len(dispatched) == 1
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_RESENT) == 1
        assert names.SERVE_WORKERS_MUTATIONS_REACKED not in counters

    def test_unrecovered_worker_is_an_honest_unacked_503(self):
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        slot.state = "failed"
        payload = {"index": "live", "op": "insert", "key": "k9"}
        response = asyncio.run(
            sup._recover_mutation(
                slot, "live", payload, {"op": "request"}, 0.05
            )
        )
        body = json.loads(response.body)
        assert response.status == 503
        assert body["acked"] is False


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

"""The load generator against fake servers."""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
from typing import Iterator

import pytest

from perfbench.loadgen import Request, Sample, closed_loop, open_loop
from perfbench.suite import ROUNDS, measured_rounds, position_latencies
from perfbench.workloads import SPECS


class _FakeServer:
    """Answers after *delay* seconds; one request may stall much longer."""

    def __init__(
        self, delay: float, stall_at: "int | None" = None, stall: float = 0.0
    ) -> None:
        self.delay = delay
        self.stall_at = stall_at
        self.stall = stall
        self.in_flight = 0
        self.most_in_flight = 0
        self.calls = 0

    async def send(self, request: Request, request_id: str) -> "tuple[int, bytes]":
        self.calls += 1
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        try:
            stalled = request.ref == self.stall_at
            await asyncio.sleep(self.stall if stalled else self.delay)
            return 200, b"{}"
        finally:
            self.in_flight -= 1


def _requests() -> "Iterator[Request]":
    return (Request("knn", i, "/query", b"{}") for i in itertools.count())


def test_open_loop_counts_latency_from_the_due_time_across_a_stall() -> None:
    server = _FakeServer(delay=0.001, stall_at=3, stall=0.3)
    samples = asyncio.run(
        open_loop(server, _requests(), rate=50.0, seconds=0.6, max_in_flight=1)
    )
    by_ref = {s.request.ref: s for s in samples}
    stalled, behind = by_ref[3], by_ref[4]
    assert stalled.latency_s >= 0.3
    # Request 4 was due 20 ms after request 3 but could only be sent
    # once the stall ended; its latency and lag both carry the wait.
    assert behind.lag >= 0.25
    assert behind.latency_s >= behind.lag
    assert behind.due == pytest.approx(by_ref[0].due + 4 / 50.0)


@pytest.mark.parametrize("clients", [1, 2])
def test_neither_loop_exceeds_its_client_count(clients: int) -> None:
    closed = _FakeServer(delay=0.004)
    asyncio.run(
        closed_loop(closed, _requests(), clients=clients, seconds=0.3, max_rate=1e6)
    )
    assert closed.most_in_flight == clients
    opened = _FakeServer(delay=0.05)
    asyncio.run(
        open_loop(opened, _requests(), rate=200.0, seconds=0.1, max_in_flight=clients)
    )
    assert opened.most_in_flight == clients


def test_closed_loop_stays_under_its_rate_cap() -> None:
    server = _FakeServer(delay=0.0)
    samples = asyncio.run(
        closed_loop(server, _requests(), clients=2, seconds=0.5, max_rate=40.0)
    )
    assert 10 <= len(samples) <= 24


def test_closed_loop_runs_past_its_seconds_until_min_requests() -> None:
    server = _FakeServer(delay=0.0)
    samples = asyncio.run(
        closed_loop(
            server,
            _requests(),
            clients=2,
            seconds=0.1,
            max_rate=40.0,
            min_requests=12,
            max_seconds=5.0,
        )
    )
    assert len(samples) == 12
    capped = asyncio.run(
        closed_loop(
            server,
            _requests(),
            clients=1,
            seconds=0.1,
            max_rate=20.0,
            min_requests=1000,
            max_seconds=0.3,
        )
    )
    assert len(capped) <= 7


def _samples(
    kind: str, distinct: int, requests: int, slow: "dict[int, float]"
) -> "list[Sample]":
    """*requests* samples in rounds; position p takes 10(p+1) ms plus *slow*."""
    samples = []
    for number in range(requests):
        round_, position = divmod(number, distinct)
        seconds = 0.01 * (position + 1) + slow.get(number, 0.0)
        request = Request(kind, position, "/query", b"{}", round_)
        samples.append(Sample(request, str(number), 0.0, 0.0, seconds, 200, b"", 0.0))
    return samples


def test_latencies_come_from_the_same_rounds_on_every_run() -> None:
    spec = dataclasses.replace(SPECS["knn-large"], distinct=4)
    # The fastest repetition ignores a pause that hits one repetition.
    stalled = _samples("knn", 4, 4 * ROUNDS, {9: 0.5})
    rounds, measured = measured_rounds(spec, stalled)
    assert rounds == ROUNDS
    assert position_latencies(spec, measured) == pytest.approx([10, 20, 30, 40])
    # A faster run completes more rounds, and a partial one, but is
    # measured on the same first ROUNDS rounds only: here the extra
    # rounds are faster still, and change nothing.
    longer = stalled + [
        dataclasses.replace(s, request=dataclasses.replace(s.request, round=r), done=0.001)
        for r in (ROUNDS, ROUNDS + 1)
        for s in stalled[:4]
    ][:-1]
    assert measured_rounds(spec, longer) == (ROUNDS, measured)
    # A run that only completed two rounds is measured on those two.
    short = _samples("knn", 4, 2 * 4 + 3, {})
    assert measured_rounds(spec, short)[0] == 2
    with pytest.raises(RuntimeError):
        measured_rounds(spec, short[:3])


def test_mutation_positions_take_the_median_of_their_repetitions() -> None:
    spec = dataclasses.replace(SPECS["mutate-mix"], distinct=4)
    samples = _samples("mutate", 4, 12, {1: 0.5, 5: 0.2})
    # Position 1 took 520 ms, 220 ms and 20 ms over the three rounds.
    assert position_latencies(spec, samples) == pytest.approx([10, 220, 30, 40])

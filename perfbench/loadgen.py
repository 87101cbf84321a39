"""Load generation over loopback HTTP from one asyncio client process.

Two loop shapes drive the server:

- a **closed loop**: ``clients`` coroutines each send the next request
  only after the previous reply arrived, so a slow server receives less
  load.  A rate cap keeps a fast server below the tenant rate limit of
  ``repro serve`` (50 requests/s for the default class).  Latency runs
  from send to reply; *lag* is how late a client sent after it was
  free to (the generator's own delay).  A slow server may keep the
  loop going past ``seconds``, up to ``max_seconds``, until
  ``min_requests`` have been sent.
- an **open loop**: request ``i`` is due at ``t0 + i / rate`` whatever
  the server does.  Latency runs from the *due* time, so a stall also
  charges the requests queued behind it; lag is how late the generator
  sent each request.  At most ``max_in_flight`` requests are
  outstanding, so a stalled server makes later sends late instead of
  piling up connections.

Both loops stop issuing once ``seconds`` have passed and wait for the
requests already sent.  Percentiles are exact over the samples.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

__all__ = [
    "HttpTransport",
    "Request",
    "Sample",
    "Transport",
    "closed_loop",
    "open_loop",
    "percentile",
]

#: Header carrying the client's request number, so traced spans and
#: replays can be matched to the sample that caused them.
REQUEST_ID_HEADER = "x-bench-request-id"

#: How long before a due time the open loop stops sleeping and yields.
_SPIN_S = 0.0015


@dataclass(frozen=True)
class Request:
    """One HTTP request of a workload's request stream."""

    kind: str  # "knn" | "rknn" | "dominating" | "mutate"
    #: Index of the input (query or mutation) this request carries.
    ref: int
    path: str
    body: bytes
    #: The round of the workload's request stream this request is in
    #: (-1: sent outside every round, such as a warm-up).
    round: int = -1


@dataclass
class Sample:
    """One attempted request as the client saw it."""

    request: Request
    request_id: str
    due: float
    sent: float
    done: float
    #: HTTP status, or 0 when the exchange itself failed (timeout,
    #: refused or reset connection).
    status: int
    body: bytes
    #: How late the generator issued this request, seconds.
    lag: float

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class Transport(Protocol):
    """Sends one request; the loops only ever talk to this."""

    async def send(self, request: Request, request_id: str) -> "tuple[int, bytes]":
        ...


class HttpTransport:
    """HTTP/1.1, one connection per request (the server closes it)."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    async def send(self, request: Request, request_id: str) -> "tuple[int, bytes]":
        try:
            return await asyncio.wait_for(
                self._exchange(request, request_id), timeout=self.timeout_s
            )
        except (asyncio.TimeoutError, OSError, ValueError, IndexError):
            return 0, b""

    async def _exchange(
        self, request: Request, request_id: str
    ) -> "tuple[int, bytes]":
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            head = (
                f"POST {request.path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(request.body)}\r\n"
                f"{REQUEST_ID_HEADER}: {request_id}\r\n\r\n"
            )
            writer.write(head.encode("ascii") + request.body)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        status_line, _, rest = raw.partition(b"\r\n")
        _, _, body = rest.partition(b"\r\n\r\n")
        return int(status_line.split(b" ")[1]), body


async def closed_loop(
    transport: Transport,
    requests: "Iterator[Request]",
    *,
    clients: int,
    seconds: float,
    max_rate: float,
    min_requests: int = 0,
    max_seconds: "float | None" = None,
) -> "list[Sample]":
    """Run *clients* closed-loop clients over one shared request stream.

    Together the clients send at most *max_rate* requests per second:
    a client whose reply came back early waits out its share of the
    interval, so a faster server can never push the run into the
    server's own rate limit.  Sending stops once *seconds* have passed
    and *min_requests* have been sent, or once *max_seconds* have
    passed.
    """
    samples: "list[Sample]" = []
    ids = itertools.count()
    sent_count = 0
    interval = clients / max_rate
    started = time.perf_counter()
    deadline = started + seconds
    limit = started + max(seconds, max_seconds or seconds)

    def more() -> bool:
        now = time.perf_counter()
        return now < deadline or (sent_count < min_requests and now < limit)

    async def client() -> None:
        nonlocal sent_count
        ready: "float | None" = None
        while more():
            request = next(requests, None)
            if request is None:
                return
            sent_count += 1
            if ready is not None and ready > time.perf_counter():
                await asyncio.sleep(ready - time.perf_counter())
            request_id = str(next(ids))
            sent = time.perf_counter()
            lag = 0.0 if ready is None else sent - ready
            status, body = await transport.send(request, request_id)
            done = time.perf_counter()
            samples.append(
                Sample(request, request_id, sent, sent, done, status, body, lag)
            )
            ready = max(done, sent + interval)

    await asyncio.gather(*(client() for _ in range(clients)))
    return samples


async def open_loop(
    transport: Transport,
    requests: "Iterator[Request]",
    *,
    rate: float,
    seconds: float,
    max_in_flight: int,
) -> "list[Sample]":
    """Send on a fixed schedule of *rate* requests per second."""
    samples: "list[Sample]" = []
    slots = asyncio.Semaphore(max_in_flight)
    tasks: "list[asyncio.Task[None]]" = []

    async def one(request: Request, request_id: str, due: float, sent: float) -> None:
        try:
            status, body = await transport.send(request, request_id)
            done = time.perf_counter()
            samples.append(
                Sample(request, request_id, due, sent, done, status, body, sent - due)
            )
        finally:
            slots.release()

    started = time.perf_counter()
    for number in itertools.count():
        due = started + number / rate
        if due >= started + seconds:
            break
        request = next(requests, None)
        if request is None:
            break
        # The loop's timers wake up to a millisecond late: sleep to just
        # short of the due time, then yield until it arrives.
        delay = due - time.perf_counter() - _SPIN_S
        if delay > 0.0:
            await asyncio.sleep(delay)
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        await slots.acquire()
        sent = time.perf_counter()
        tasks.append(asyncio.create_task(one(request, str(number), due, sent)))
    await asyncio.gather(*tasks)
    samples.sort(key=lambda sample: sample.due)
    return samples


def percentile(values: "Sequence[float]", p: float) -> float:
    """Exact linear-interpolation percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


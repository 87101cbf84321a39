"""Admission control: bounded concurrency, bounded queue, token buckets.

Overload handling is a *product decision* here, not an accident: a
saturated server answers **429 with Retry-After** immediately instead
of queueing without bound and timing every request out.  Three gates,
cheapest first:

1. **Queue bound** — at most ``max_concurrency`` requests execute and
   at most ``max_queue`` wait; anything beyond is shed with reason
   ``"queue_full"``.  Shedding costs O(1) — the whole point of
   admission control is that the overloaded path is the cheap one.
2. **Token bucket per tenant** — each tenant class sustains
   ``rate_per_s`` with a ``burst`` allowance; beyond that the request
   is shed with reason ``"rate_limited"`` and a Retry-After derived
   from the refill rate.
3. **Concurrency semaphore** — admitted requests wait (bounded by the
   queue gate above) for one of ``max_concurrency`` execution slots.

Clock reads go through the same module attribute the resilience layer
uses (:data:`repro.resilience.budget._monotonic`), so the ``"clock"``
fault seam skews admission exactly like it skews deadlines.  A broken
clock can never mint tokens: refills are clamped to the non-negative
range and a raising/non-finite clock freezes the bucket at its current
level (tallied on ``serve.admission.clock_faults``) — conservative in
the only direction that matters, because a frozen bucket sheds (429,
retryable) rather than over-admits.

The ``"queue"`` fault seam patches :func:`_overflow_probe` to simulate
a full queue regardless of actual depth — chaos tests use it to prove
that saturation surfaces as 429 all the way through the HTTP layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from dataclasses import dataclass
from typing import AsyncIterator

from repro import obs
from repro.exceptions import ServeError
from repro.obs import names
from repro.resilience import budget as _budget
from repro.serve.tenancy import TenantClass

__all__ = ["AdmissionController", "AdmissionDecision", "TokenBucket"]


def _overflow_probe() -> bool:
    """Whether the queue should be treated as overflowing right now.

    Always ``False`` in production; the ``"queue"`` fault seam
    (:mod:`repro.robust.faults`) patches this attribute to force the
    shed path deterministically.
    """
    return False


def _read_clock() -> "float | None":
    """One guarded monotonic read; ``None`` means the clock is broken.

    Reads through :data:`repro.resilience.budget._monotonic` so the
    ``"clock"`` fault seam covers admission too.
    """
    try:
        now = float(_budget._monotonic())
    except ArithmeticError:
        return None
    if not math.isfinite(now):
        return None
    return now


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one request, pre-execution."""

    admitted: bool
    #: ``None`` when admitted; ``"queue_full"`` / ``"rate_limited"``
    #: / ``"breaker_open"`` when shed.
    reason: "str | None" = None
    #: Suggested client back-off, seconds (the Retry-After header).
    retry_after_s: float = 0.0


class TokenBucket:
    """A per-tenant-class token bucket with a guarded clock."""

    __slots__ = ("rate_per_s", "burst", "_tokens", "_stamp")

    def __init__(self, rate_per_s: float, burst: int) -> None:
        if rate_per_s <= 0.0:
            raise ServeError(f"rate_per_s must be positive, got {rate_per_s!r}")
        if burst < 1:
            raise ServeError(f"burst must be >= 1, got {burst!r}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = float(burst)
        self._stamp: "float | None" = None

    @property
    def tokens(self) -> float:
        """The current token level (diagnostics only)."""
        return self._tokens

    def try_take(self) -> "tuple[bool, float]":
        """Take one token; returns ``(granted, retry_after_s)``.

        A broken or backwards clock refills nothing (and is tallied);
        the bucket then drains to empty and sheds until the clock
        recovers — never the over-admitting direction.
        """
        now = _read_clock()
        if now is None:
            if obs.ENABLED:
                obs.incr(names.SERVE_ADMISSION_CLOCK_FAULTS)
        elif self._stamp is None:
            self._stamp = now
        else:
            elapsed = now - self._stamp
            if elapsed > 0.0:
                self._tokens = min(
                    float(self.burst), self._tokens + elapsed * self.rate_per_s
                )
                self._stamp = now
            elif elapsed < 0.0:
                # A rewound clock: re-anchor without minting tokens.
                self._stamp = now
                if obs.ENABLED:
                    obs.incr(names.SERVE_ADMISSION_CLOCK_FAULTS)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        deficit = 1.0 - self._tokens
        return False, deficit / self.rate_per_s


class AdmissionController:
    """The three admission gates in front of query execution."""

    def __init__(self, *, max_concurrency: int = 8, max_queue: int = 32) -> None:
        if max_concurrency < 1:
            raise ServeError(
                f"max_concurrency must be >= 1, got {max_concurrency!r}"
            )
        if max_queue < 0:
            raise ServeError(f"max_queue must be >= 0, got {max_queue!r}")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self._slots = asyncio.Semaphore(max_concurrency)
        self._in_flight = 0
        self._buckets: "dict[str, TokenBucket]" = {}

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet finished (running + queued)."""
        return self._in_flight

    @property
    def queued(self) -> int:
        """Requests waiting for an execution slot."""
        return max(0, self._in_flight - self.max_concurrency)

    def bucket_for(self, tenant: TenantClass) -> TokenBucket:
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = TokenBucket(tenant.rate_per_s, tenant.burst)
            self._buckets[tenant.name] = bucket
        return bucket

    def try_admit(self, tenant: TenantClass) -> AdmissionDecision:
        """Gate one request; sheds are decided here, synchronously.

        An injected queue-overflow fault (probe returning ``True`` *or*
        raising) is absorbed into the ``"queue_full"`` shed — a fault
        in the admission machinery itself must surface as a retryable
        429, never as a 5xx.
        """
        try:
            overflowing = bool(_overflow_probe())
        except ArithmeticError:
            overflowing = True
        if overflowing or self.queued >= self.max_queue:
            if obs.ENABLED:
                obs.incr(names.SERVE_ADMISSION_QUEUE_FULL)
            return AdmissionDecision(
                admitted=False, reason="queue_full", retry_after_s=1.0
            )
        granted, retry_after_s = self.bucket_for(tenant).try_take()
        if not granted:
            if obs.ENABLED:
                obs.incr(names.SERVE_ADMISSION_RATE_LIMITED)
            return AdmissionDecision(
                admitted=False,
                reason="rate_limited",
                retry_after_s=max(retry_after_s, 0.05),
            )
        if obs.ENABLED:
            obs.incr(names.SERVE_ADMISSION_ADMITTED)
            obs.observe(names.SERVE_QUEUE_DEPTH, float(self.queued))
        return AdmissionDecision(admitted=True)

    @contextlib.asynccontextmanager
    async def slot(self) -> "AsyncIterator[None]":
        """Hold one execution slot for an admitted request."""
        self._in_flight += 1
        try:
            async with self._slots:
                yield
        finally:
            self._in_flight -= 1

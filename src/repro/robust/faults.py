"""Deterministic fault injection for the numerical dominance kernels.

The escalation ladder's claim is *graceful degradation*: whatever a
numerical kernel does — return garbage, overflow, blow up — a certified
verdict is either right or honestly ``UNCERTAIN``.  This module makes
that claim testable by corrupting the kernels at their seams:

``"dmin"``
    The served ``dmin`` solver of :mod:`repro.core.dmin`
    (:func:`~repro.core.dmin.solve` and
    :func:`~repro.core.dmin.solve_batch`): the scalar Hyperbola kernel,
    the batch kernel's band rows and both float rungs of the certified
    ladder resolve it at call time.  The scalar solver's ``(dmin,
    error)`` pair is corrupted as a whole.
``"quartic"``
    The three root solvers in :mod:`repro.geometry.quartic`
    (:func:`~repro.geometry.quartic.solve_quartic_real`, its
    closed-form and batch variants), which only the paper's Equation
    (14) search in :mod:`repro.experiments.quartic` still calls: no
    served decision reaches this seam.
``"frame"``
    :meth:`repro.geometry.transform.FocalFrame.reduce`, the O(d)
    reduction feeding ``(t, rho)`` into the 2-D kernel.
``"distance"``
    :func:`repro.geometry.distance.dist`, used by the overlap and
    center-side fast paths, and its row-wise twin
    :func:`~repro.geometry.distance.dists`, which bounds the rows of a
    kNN leaf, memtable or flat scan in one sweep (one call, one hit).
``"index"``
    :meth:`repro.index.packed.LeafDirectory.bounds`, which bounds every
    leaf of a tree in one sweep — the values kNN skips and prunes
    leaves on (one call, one hit) — and the node distance bounds
    (``min_dist`` and ``max_dist_lower_bound``) of all three tree
    indexes, which ``browse``, ``range_query`` and the paper's
    incremental kNN prune on.  The query layer must absorb a corrupted
    bound by refusing to prune, never by dropping a leaf or subtree.
``"snapshot"``
    The raw byte I/O of :mod:`repro.index.snapshot` (``_io_write`` /
    ``_io_read``) — what a flaky disk or a crash mid-write does.  The
    CRC framing must turn every corruption into a typed
    :class:`~repro.exceptions.SnapshotCorruptionError`.
``"clock"``
    The monotonic clock behind :class:`repro.resilience.budget.Budget`
    deadlines.  A skewed or broken clock must degrade a budgeted query
    conservatively (reason ``"clock"``), never disarm its deadline.
    The serving layer's admission control and circuit breakers read
    the same attribute, so this seam skews the whole serving stack.
``"handler"``
    The request-handler hook of the serving front end
    (:func:`repro.serve.app._handler_hook`).  Scalar modes inject a
    *delay* (``nan`` ≈ 50 ms, ``overflow`` ≈ 250 ms, ``perturb`` a
    magnitude-scaled pause) that burns the request's budget; ``raise``
    explodes mid-request.  The server must answer 206 (absorbed,
    conservative) — never 5xx.
``"queue"``
    The admission queue-overflow probe
    (:func:`repro.serve.admission._overflow_probe`).  Every mode forces
    the overflow verdict (``raise`` by exploding inside the probe,
    which admission absorbs); the server must shed with 429 +
    Retry-After.
``"wal_append"``
    The raw write of :mod:`repro.stream.wal` (``_io_write``) — a torn
    or corrupted append.  Recovery must keep the good prefix and
    truncate at the first bad frame, never replay garbage.
``"wal_fsync"``
    The durability barrier of the write-ahead log (``_fsync``).
    ``raise`` explodes (the ack must not happen); scalar modes *skip*
    the sync — the lying-disk case the crash matrix pairs with a kill.
``"wal_read"``
    The raw read of the WAL replay path (``_io_read``).  Corrupt bytes
    must surface as a truncated (prefix-preserving) recovery, never as
    silently wrong mutations.
``"compact_rename"``
    The atomic commit point of :mod:`repro.stream.compact`
    (``_rename``).  Every mode raises: a failed rename must leave the
    old snapshot + WAL fully intact (typed
    :class:`~repro.exceptions.CompactionError`, no partial state).
``"worker_spawn"``
    The supervisor's pre-spawn hook
    (:func:`repro.serve.supervisor._spawn_probe`).  Every mode raises:
    a failed fork/exec must land in the backoff respawn path, and a
    persistently failing slot must hit the flap cap instead of crash
    looping.
``"worker_heartbeat"``
    The supervisor's health verdict
    (:func:`repro.serve.supervisor._heartbeat_probe`).  ``raise``
    explodes inside the check, scalar modes report the worker dead;
    either way the supervisor must count a miss, SIGKILL the worker,
    and respawn it — a flaky health checker may cost a healthy worker,
    never an answer.
``"worker_kill"``
    The supervisor's pre-dispatch chaos hook
    (:func:`repro.serve.supervisor._kill_probe`).  ``raise`` and
    scalar modes SIGKILL the chosen worker right before its request is
    written — the worst moment — so the dispatch must fail over to a
    survivor (queries) or re-ack through the WAL seq hint (mutations).

and four corruption modes (seam-appropriate where outputs are not
scalars — see each patcher):

``"nan"``     outputs poisoned with ``nan`` (snapshot: bytes zeroed);
``"overflow"``  outputs replaced by ``inf`` (snapshot: bytes truncated);
``"perturb"``   outputs scaled by ``1 + magnitude`` (default 1e-12 —
                within the float stages' certification bounds, so a
                robust decision absorbs it silently; snapshot: one bit
                flipped);
``"raise"``     the seam raises :class:`FaultInjected`.

Injection is **deterministic**: the seam fires on every ``every``-th
call (counted from the first), so a failing test replays exactly.  Use
as a context manager::

    with faults.inject("dmin", "nan"):
        decision = criterion.decide(sa, sb, sq)

Fault activations are counted per seam/mode through :mod:`repro.obs`
(``faults.<seam>.<mode>``) and on the returned handle's ``hits``.

The exact arbiter (:mod:`repro.robust.exact`) deliberately uses none of
these seams, which is what lets the full ladder terminate correctly no
matter what is injected.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.obs import names
from repro.core import dmin as _dmin
from repro.exceptions import ReproError
from repro.geometry import distance as _distance
from repro.geometry import quartic as _quartic
from repro.geometry.hypersphere import Hypersphere
from repro.geometry.transform import FocalFrame

__all__ = ["FaultInjected", "InjectedFault", "inject", "SEAMS", "MODES"]

SEAMS = (
    "dmin",
    "quartic",
    "frame",
    "distance",
    "index",
    "snapshot",
    "clock",
    "handler",
    "queue",
    "wal_append",
    "wal_fsync",
    "wal_read",
    "compact_rename",
    "worker_spawn",
    "worker_heartbeat",
    "worker_kill",
)
MODES = ("nan", "overflow", "perturb", "raise")


class FaultInjected(ArithmeticError):
    """Raised by a seam operating in ``"raise"`` mode.

    Subclasses :class:`ArithmeticError` so the escalation ladder treats
    an injected explosion exactly like a genuine numerical failure.
    """


@dataclass
class InjectedFault:
    """Handle describing one active injection (returned by :func:`inject`)."""

    seam: str
    mode: str
    every: int = 1
    magnitude: float = 1e-12
    calls: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)

    def fires(self) -> bool:
        """Advance the call counter; report whether this call is corrupted."""
        self.calls += 1
        if (self.calls - 1) % self.every != 0:
            return False
        self.hits += 1
        if obs.ENABLED:
            obs.incr(names.fault(self.seam, self.mode))
        return True

    def corrupt_scalar(self, value: float) -> float:
        if self.mode == "nan":
            return math.nan
        if self.mode == "overflow":
            return math.inf
        return value * (1.0 + self.magnitude)

    def corrupt_array(self, values: np.ndarray) -> np.ndarray:
        """Every element of *values* corrupted as :meth:`corrupt_scalar` would."""
        if self.mode == "nan":
            return np.full_like(values, np.nan)
        if self.mode == "overflow":
            return np.full_like(values, np.inf)
        return values * (1.0 + self.magnitude)

    def corrupt_pair(self, pair: "tuple[float, float]") -> "tuple[float, float]":
        return (self.corrupt_scalar(pair[0]), self.corrupt_scalar(pair[1]))

    def corrupt_roots(self, roots: np.ndarray) -> np.ndarray:
        if self.mode == "nan":
            # Append a nan rather than blanking the array: the sharper
            # failure mode is a poisoned value *alongside* real roots,
            # which float comparisons would silently drop.
            return np.append(roots, np.nan)
        if self.mode == "overflow":
            return np.append(roots, np.inf)
        return roots * (1.0 + self.magnitude)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Byte-level corruption for the snapshot seam.

        ``nan`` zeroes the buffer (a page of unwritten sectors),
        ``overflow`` truncates it (a crash mid-write), ``perturb``
        flips a single bit (a decayed sector).
        """
        if not data:
            return data
        if self.mode == "nan":
            return bytes(len(data))
        if self.mode == "overflow":
            return data[: max(len(data) - 1, 0)]
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x01
        return bytes(flipped)


def _check(seam: str, mode: str, every: int) -> None:
    if seam not in SEAMS:
        raise ReproError(f"unknown fault seam {seam!r}; expected one of {SEAMS}")
    if mode not in MODES:
        raise ReproError(f"unknown fault mode {mode!r}; expected one of {MODES}")
    if every < 1:
        raise ReproError(f"'every' must be a positive integer, got {every}")


# ----------------------------------------------------------------------
# Per-seam patchers.  Each one swaps the seam's callables for corrupted
# wrappers for the duration of the ``with`` block and restores the
# originals in ``finally`` — injection can never leak out of the block.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _patch_dmin(fault: InjectedFault) -> "Iterator[None]":
    original_solve = _dmin.solve
    original_batch = _dmin.solve_batch

    def corrupted_solve(
        t: float, rho: float, alpha: float, rab: float
    ) -> "tuple[float, float]":
        pair = original_solve(t, rho, alpha, rab)
        if not fault.fires():
            return pair
        if fault.mode == "raise":
            raise FaultInjected("injected fault in dmin.solve")
        return fault.corrupt_pair(pair)

    def corrupted_batch(
        t: np.ndarray, rho: np.ndarray, alpha: np.ndarray, rab: np.ndarray
    ) -> np.ndarray:
        dmin = original_batch(t, rho, alpha, rab)
        if not fault.fires():
            return dmin
        if fault.mode == "raise":
            raise FaultInjected("injected fault in dmin.solve_batch")
        return fault.corrupt_array(dmin)

    try:
        _dmin.solve = corrupted_solve
        _dmin.solve_batch = corrupted_batch
        yield
    finally:
        _dmin.solve = original_solve
        _dmin.solve_batch = original_batch


@contextlib.contextmanager
def _patch_quartic(fault: InjectedFault) -> "Iterator[None]":
    originals = {
        "solve_quartic_real": _quartic.solve_quartic_real,
        "solve_quartic_real_closed": _quartic.solve_quartic_real_closed,
        "solve_quartic_real_batch": _quartic.solve_quartic_real_batch,
    }

    def _wrap_solver(
        original: "Callable[..., np.ndarray]",
    ) -> "Callable[..., np.ndarray]":
        def corrupted(
            coefficients: "np.ndarray | Sequence[float]",
        ) -> np.ndarray:
            roots = original(coefficients)
            if not fault.fires():
                return roots
            if fault.mode == "raise":
                raise FaultInjected(f"injected fault in {original.__name__}")
            return fault.corrupt_roots(roots)

        return corrupted

    def _wrap_batch(
        original: "Callable[..., np.ndarray]",
    ) -> "Callable[..., np.ndarray]":
        def corrupted(coefficients: np.ndarray) -> np.ndarray:
            roots = original(coefficients)
            if not fault.fires():
                return roots
            if fault.mode == "raise":
                raise FaultInjected("injected fault in solve_quartic_real_batch")
            if fault.mode == "nan":
                return np.where(np.isnan(roots), roots, np.nan)
            if fault.mode == "overflow":
                return np.where(np.isnan(roots), roots, np.inf)
            return roots * (1.0 + fault.magnitude)

        return corrupted

    try:
        _quartic.solve_quartic_real = _wrap_solver(originals["solve_quartic_real"])
        _quartic.solve_quartic_real_closed = _wrap_solver(
            originals["solve_quartic_real_closed"]
        )
        _quartic.solve_quartic_real_batch = _wrap_batch(
            originals["solve_quartic_real_batch"]
        )
        yield
    finally:
        for name, original in originals.items():
            setattr(_quartic, name, original)


@contextlib.contextmanager
def _patch_frame(fault: InjectedFault) -> "Iterator[None]":
    original_reduce = FocalFrame.reduce

    def corrupted_reduce(
        self: FocalFrame, point: "Sequence[float] | np.ndarray"
    ) -> "tuple[float, float]":
        pair = original_reduce(self, point)
        if not fault.fires():
            return pair
        if fault.mode == "raise":
            raise FaultInjected("injected fault in FocalFrame.reduce")
        return fault.corrupt_pair(pair)

    try:
        FocalFrame.reduce = corrupted_reduce
        yield
    finally:
        FocalFrame.reduce = original_reduce


@contextlib.contextmanager
def _patch_distance(fault: InjectedFault) -> "Iterator[None]":
    original_dist = _distance.dist
    original_dists = _distance.dists

    def corrupted_dist(
        p: "Sequence[float] | np.ndarray", q: "Sequence[float] | np.ndarray"
    ) -> float:
        value = original_dist(p, q)
        if not fault.fires():
            return value
        if fault.mode == "raise":
            raise FaultInjected("injected fault in dist")
        return fault.corrupt_scalar(value)

    def corrupted_dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
        values = original_dists(points, q)
        if not fault.fires():
            return values
        if fault.mode == "raise":
            raise FaultInjected("injected fault in dists")
        return fault.corrupt_array(values)

    try:
        _distance.dist = corrupted_dist
        _distance.dists = corrupted_dists
        yield
    finally:
        _distance.dist = original_dist
        _distance.dists = original_dists


@contextlib.contextmanager
def _patch_index(fault: InjectedFault) -> "Iterator[None]":
    # Imported here, not at module top: the seams are optional test
    # machinery and must not make repro.robust depend on the indexes.
    from repro.index.mtree import MTreeNode
    from repro.index.packed import LeafDirectory
    from repro.index.sstree import SSTreeNode
    from repro.index.vptree import VPTreeNode

    node_classes = (SSTreeNode, MTreeNode, VPTreeNode)
    method_names = ("min_dist", "max_dist_lower_bound")
    originals = [
        (cls, name, getattr(cls, name))
        for cls in node_classes
        for name in method_names
    ]
    original_bounds = LeafDirectory.bounds

    def _wrap_bound(
        original: "Callable[..., float]", label: str
    ) -> "Callable[..., float]":
        def corrupted(self: object, query: object) -> float:
            value = original(self, query)
            if not fault.fires():
                return value
            if fault.mode == "raise":
                raise FaultInjected(f"injected fault in {label}")
            return fault.corrupt_scalar(value)

        return corrupted

    def corrupted_bounds(
        self: LeafDirectory, query: Hypersphere
    ) -> "tuple[np.ndarray, np.ndarray]":
        min_lower, max_lower = original_bounds(self, query)
        if not fault.fires():
            return min_lower, max_lower
        if fault.mode == "raise":
            raise FaultInjected("injected fault in LeafDirectory.bounds")
        return fault.corrupt_array(min_lower), fault.corrupt_array(max_lower)

    try:
        for cls, name, original in originals:
            setattr(cls, name, _wrap_bound(original, f"{cls.__name__}.{name}"))
        LeafDirectory.bounds = corrupted_bounds
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
        LeafDirectory.bounds = original_bounds


@contextlib.contextmanager
def _patch_snapshot(fault: InjectedFault) -> "Iterator[None]":
    from repro.index import snapshot as _snapshot

    original_write = _snapshot._io_write
    original_read = _snapshot._io_read

    def corrupted_write(handle: BinaryIO, data: bytes) -> None:
        if fault.fires():
            if fault.mode == "raise":
                raise FaultInjected("injected fault in snapshot write")
            data = fault.corrupt_bytes(data)
        original_write(handle, data)

    def corrupted_read(handle: BinaryIO, size: int) -> bytes:
        data = original_read(handle, size)
        if not fault.fires():
            return data
        if fault.mode == "raise":
            raise FaultInjected("injected fault in snapshot read")
        return fault.corrupt_bytes(data)

    try:
        _snapshot._io_write = corrupted_write
        _snapshot._io_read = corrupted_read
        yield
    finally:
        _snapshot._io_write = original_write
        _snapshot._io_read = original_read


@contextlib.contextmanager
def _patch_clock(fault: InjectedFault) -> "Iterator[None]":
    from repro.resilience import budget as _budget

    original_monotonic = _budget._monotonic

    def corrupted_monotonic() -> float:
        now = original_monotonic()
        if not fault.fires():
            return now
        if fault.mode == "raise":
            raise FaultInjected("injected fault in monotonic clock")
        return fault.corrupt_scalar(now)

    try:
        _budget._monotonic = corrupted_monotonic
        yield
    finally:
        _budget._monotonic = original_monotonic


@contextlib.contextmanager
def _patch_handler(fault: InjectedFault) -> "Iterator[None]":
    from repro.serve import app as _app

    original_hook = _app._handler_hook

    def corrupted_hook() -> float:
        delay = original_hook()
        if not fault.fires():
            return delay
        if fault.mode == "raise":
            raise FaultInjected("injected fault in request handler")
        if fault.mode == "nan":
            return delay + 0.05
        if fault.mode == "overflow":
            return delay + 0.25
        # perturb: a pause scaled off the magnitude (default 1e-12
        # → 1 ms), small enough that only tight deadlines notice.
        return delay + fault.magnitude * 1e9

    try:
        _app._handler_hook = corrupted_hook
        yield
    finally:
        _app._handler_hook = original_hook


@contextlib.contextmanager
def _patch_queue(fault: InjectedFault) -> "Iterator[None]":
    from repro.serve import admission as _admission

    original_probe = _admission._overflow_probe

    def corrupted_probe() -> bool:
        overflowing = original_probe()
        if not fault.fires():
            return overflowing
        if fault.mode == "raise":
            raise FaultInjected("injected fault in queue-overflow probe")
        return True

    try:
        _admission._overflow_probe = corrupted_probe
        yield
    finally:
        _admission._overflow_probe = original_probe


@contextlib.contextmanager
def _patch_wal_append(fault: InjectedFault) -> "Iterator[None]":
    from repro.stream import wal as _wal

    original_write = _wal._io_write

    def corrupted_write(handle: BinaryIO, data: bytes) -> None:
        if fault.fires():
            if fault.mode == "raise":
                raise FaultInjected("injected fault in WAL append")
            data = fault.corrupt_bytes(data)
        original_write(handle, data)

    try:
        _wal._io_write = corrupted_write
        yield
    finally:
        _wal._io_write = original_write


@contextlib.contextmanager
def _patch_wal_fsync(fault: InjectedFault) -> "Iterator[None]":
    from repro.stream import wal as _wal

    original_fsync = _wal._fsync

    def corrupted_fsync(fileno: int) -> None:
        if fault.fires():
            if fault.mode == "raise":
                raise FaultInjected("injected fault in WAL fsync")
            # Scalar modes model a lying disk: the sync is silently
            # skipped.  On its own this is invisible; the crash matrix
            # pairs it with a process kill to test the exposure.
            return
        original_fsync(fileno)

    try:
        _wal._fsync = corrupted_fsync
        yield
    finally:
        _wal._fsync = original_fsync


@contextlib.contextmanager
def _patch_wal_read(fault: InjectedFault) -> "Iterator[None]":
    from repro.stream import wal as _wal

    original_read = _wal._io_read

    def corrupted_read(handle: BinaryIO, size: int) -> bytes:
        data = original_read(handle, size)
        if not fault.fires():
            return data
        if fault.mode == "raise":
            raise FaultInjected("injected fault in WAL read")
        return fault.corrupt_bytes(data)

    try:
        _wal._io_read = corrupted_read
        yield
    finally:
        _wal._io_read = original_read


@contextlib.contextmanager
def _patch_compact_rename(fault: InjectedFault) -> "Iterator[None]":
    # Not ``from repro.stream import compact``: the package re-exports
    # the compact *function* under that name, shadowing the module
    # attribute, so the module must be fetched from the import system.
    import importlib

    _compact = importlib.import_module("repro.stream.compact")

    original_rename = _compact._rename

    def corrupted_rename(source: str, destination: str) -> None:
        if fault.fires():
            # Every mode explodes: a rename has no scalar output to
            # poison, and a failed commit is the interesting case.
            raise FaultInjected("injected fault in compaction rename")
        original_rename(source, destination)

    try:
        _compact._rename = corrupted_rename
        yield
    finally:
        _compact._rename = original_rename


@contextlib.contextmanager
def _patch_worker_spawn(fault: InjectedFault) -> "Iterator[None]":
    from repro.serve import supervisor as _supervisor

    original_probe = _supervisor._spawn_probe

    def corrupted_probe() -> None:
        original_probe()
        if fault.fires():
            # Every mode explodes: a spawn has no scalar output to
            # poison, and a failed fork/exec is the interesting case.
            raise FaultInjected("injected fault in worker spawn")

    try:
        _supervisor._spawn_probe = corrupted_probe
        yield
    finally:
        _supervisor._spawn_probe = original_probe


@contextlib.contextmanager
def _patch_worker_heartbeat(fault: InjectedFault) -> "Iterator[None]":
    from repro.serve import supervisor as _supervisor

    original_probe = _supervisor._heartbeat_probe

    def corrupted_probe() -> bool:
        alive = original_probe()
        if not fault.fires():
            return alive
        if fault.mode == "raise":
            raise FaultInjected("injected fault in worker heartbeat")
        # Scalar modes model a worker that stops answering pings: the
        # health verdict comes back dead even though the process lives.
        return False

    try:
        _supervisor._heartbeat_probe = corrupted_probe
        yield
    finally:
        _supervisor._heartbeat_probe = original_probe


@contextlib.contextmanager
def _patch_worker_kill(fault: InjectedFault) -> "Iterator[None]":
    from repro.serve import supervisor as _supervisor

    original_probe = _supervisor._kill_probe

    def corrupted_probe() -> bool:
        wants_kill = original_probe()
        if not fault.fires():
            return wants_kill
        if fault.mode == "raise":
            raise FaultInjected("injected fault in worker kill probe")
        return True

    try:
        _supervisor._kill_probe = corrupted_probe
        yield
    finally:
        _supervisor._kill_probe = original_probe


_PATCHERS: "dict[str, Callable[[InjectedFault], contextlib.AbstractContextManager[None]]]" = {
    "dmin": _patch_dmin,
    "quartic": _patch_quartic,
    "frame": _patch_frame,
    "distance": _patch_distance,
    "index": _patch_index,
    "snapshot": _patch_snapshot,
    "clock": _patch_clock,
    "handler": _patch_handler,
    "queue": _patch_queue,
    "wal_append": _patch_wal_append,
    "wal_fsync": _patch_wal_fsync,
    "wal_read": _patch_wal_read,
    "compact_rename": _patch_compact_rename,
    "worker_spawn": _patch_worker_spawn,
    "worker_heartbeat": _patch_worker_heartbeat,
    "worker_kill": _patch_worker_kill,
}


@contextlib.contextmanager
def inject(
    seam: str,
    mode: str,
    every: int = 1,
    magnitude: float = 1e-12,
) -> Iterator[InjectedFault]:
    """Corrupt one *seam* with one *mode* for the duration of the block."""
    _check(seam, mode, every)
    fault = InjectedFault(seam=seam, mode=mode, every=every, magnitude=magnitude)
    with _PATCHERS[seam](fault):
        yield fault

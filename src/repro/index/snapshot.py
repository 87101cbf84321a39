"""Crash-safe index snapshots: checksummed save / load / verify.

A production service cannot afford to rebuild its indexes from scratch
after every restart, and it can afford even less to *trust* a file that
a crash (or a flaky disk) left half-written.  This module persists all
four index structures — :class:`~repro.index.linear.LinearIndex`,
:class:`~repro.index.sstree.SSTree`, :class:`~repro.index.mtree.MTree`
and :class:`~repro.index.vptree.VPTree` — with three defences:

**Versioned header.**  Every snapshot starts with a magic string, a
format version and a CRC-protected JSON header naming the index kind,
dimensionality, entry count and structural parameters.  An unknown
magic or version is rejected before any page is parsed.

**CRC per node page.**  The structure is serialised as a sequence of
*pages* (one page per tree node; entry chunks for the flat index), each
framed as ``length || payload || crc32(payload)``.  Every byte of the
file after the magic is covered by either a length field that is
bounds-checked against the file size or a CRC, so any single corrupted
byte is detected at load time and surfaced as a typed
:class:`~repro.exceptions.SnapshotCorruptionError` — never as a
silently wrong index (the bit-flip test in ``tests/test_snapshot.py``
asserts exactly this, byte by byte).

**Atomic rename-on-write.**  :func:`save` writes to a temporary file in
the destination directory, flushes and fsyncs it, and only then
``os.replace``-s it over the target, so a crash mid-save leaves the
previous snapshot intact.

Geometry round-trips exactly: floats are serialised through JSON, whose
``repr``-based encoding reproduces every finite float64 bit for bit, and
node fields (centroids, covering radii, distance bands) are restored
rather than recomputed.  ``load(save(index))`` therefore answers every
kNN query identically to the original — the property test in
``tests/test_snapshot.py`` drives this across all four indexes.

Raw file I/O goes through the module attributes :func:`_io_write` /
:func:`_io_read` so the fault-injection harness
(:mod:`repro.robust.faults`, seam ``"snapshot"``) can corrupt bytes in
flight; the CRC framing is what turns those faults into typed errors.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zlib
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from repro import obs
from repro.exceptions import SnapshotCorruptionError, SnapshotError
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.mtree import MTree, MTreeNode
from repro.index.packed import pack
from repro.index.sstree import SSTree, SSTreeNode
from repro.index.vptree import VPTree, VPTreeNode
from repro.obs import names

__all__ = ["save", "load", "verify", "MAGIC", "VERSION"]

MAGIC = b"HSDOMSNP"
VERSION = 1

_U32 = struct.Struct("<I")
#: Entries per page for the flat linear index.
_LINEAR_PAGE_ENTRIES = 256

AnyIndex = "LinearIndex | SSTree | MTree | VPTree"


# ----------------------------------------------------------------------
# Raw I/O seam (patched by repro.robust.faults, seam "snapshot")
# ----------------------------------------------------------------------
def _io_write(handle: BinaryIO, data: bytes) -> None:
    """Write *data*; the snapshot fault seam wraps this attribute."""
    handle.write(data)


def _io_read(handle: BinaryIO, size: int) -> bytes:
    """Read up to *size* bytes; the snapshot fault seam wraps this."""
    return handle.read(size)


# ----------------------------------------------------------------------
# Entry (key, sphere) codec
# ----------------------------------------------------------------------
def _encode_key(key: object) -> list:
    if key is None:
        return ["n"]
    if isinstance(key, bool):  # before int: bool subclasses int
        return ["b", key]
    if isinstance(key, int):
        return ["i", key]
    if isinstance(key, float):
        return ["f", key]
    if isinstance(key, str):
        return ["s", key]
    if isinstance(key, tuple):
        return ["t", [_encode_key(item) for item in key]]
    raise SnapshotError(
        f"entry key of type {type(key).__name__!r} is not "
        "snapshot-serialisable (supported: None, bool, int, float, str, "
        "tuple thereof)"
    )


def _decode_key(encoded: Any) -> object:
    if not isinstance(encoded, list) or not encoded:
        raise SnapshotCorruptionError("malformed entry key in snapshot page")
    tag = encoded[0]
    if tag == "n":
        return None
    if tag in ("b", "i", "f", "s"):
        return encoded[1]
    if tag == "t":
        return tuple(_decode_key(item) for item in encoded[1])
    raise SnapshotCorruptionError(f"unknown entry-key tag {tag!r}")


def _encode_entries(entries: "Sequence[tuple[object, Hypersphere]]") -> list:
    return [
        [_encode_key(key), [float(c) for c in sphere.center], sphere.radius]
        for key, sphere in entries
    ]


def _decode_entries(encoded: Any) -> "list[tuple[object, Hypersphere]]":
    try:
        return [
            (_decode_key(key), Hypersphere(center, radius))
            for key, center, radius in encoded
        ]
    except (TypeError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"malformed entry list in snapshot page: {error}"
        ) from error


# ----------------------------------------------------------------------
# Per-index page codecs (preorder node pages)
# ----------------------------------------------------------------------
def _linear_pages(index: LinearIndex) -> "Iterator[dict]":
    entries = list(index)
    for at in range(0, len(entries), _LINEAR_PAGE_ENTRIES):
        chunk = entries[at : at + _LINEAR_PAGE_ENTRIES]
        yield {"entries": _encode_entries(chunk)}


def _sstree_pages(node: SSTreeNode) -> "Iterator[dict]":
    page = {
        "leaf": node.is_leaf,
        "children": len(node.children),
        "centroid": [float(c) for c in node.centroid],
        "radius": node.radius,
        "count": node.count,
    }
    if node.is_leaf:
        page["entries"] = _encode_entries(node.entries)
    yield page
    for child in node.children:
        yield from _sstree_pages(child)


def _mtree_pages(node: MTreeNode) -> "Iterator[dict]":
    page = {
        "leaf": node.is_leaf,
        "children": len(node.children),
        "routing": (
            None if node.routing is None else [float(c) for c in node.routing]
        ),
        "radius": node.radius,
        "count": node.count,
    }
    if node.is_leaf:
        page["entries"] = _encode_entries(node.entries)
    yield page
    for child in node.children:
        yield from _mtree_pages(child)


def _vptree_pages(node: VPTreeNode) -> "Iterator[dict]":
    page = {
        "leaf": node.is_leaf,
        "children": len(node.children),
        "vantage": [float(c) for c in node.vantage],
        "lo": node.lo,
        "hi": node.hi,
        "r_max": node.r_max,
        "count": node.count,
        "split_radius": node.split_radius,
    }
    if node.is_leaf:
        page["entries"] = _encode_entries(node.entries)
    yield page
    for child in node.children:
        yield from _vptree_pages(child)


def _page_field(page: dict, key: str) -> Any:
    try:
        return page[key]
    except KeyError:
        raise SnapshotCorruptionError(
            f"snapshot page is missing the {key!r} field"
        ) from None


def _rebuild_sstree_node(pages: "Iterator[dict]", dimension: int) -> SSTreeNode:
    page = _next_page(pages)
    node = SSTreeNode(dimension, is_leaf=bool(_page_field(page, "leaf")))
    node.centroid = _as_vector(_page_field(page, "centroid"), dimension)
    node.radius = float(_page_field(page, "radius"))
    node.count = int(_page_field(page, "count"))
    if node.is_leaf:
        node.entries = _decode_entries(_page_field(page, "entries"))
        node.centers, node.radii = pack(node.entries)
    for _ in range(int(_page_field(page, "children"))):
        node.children.append(_rebuild_sstree_node(pages, dimension))
    return node


def _rebuild_mtree_node(pages: "Iterator[dict]", dimension: int) -> MTreeNode:
    page = _next_page(pages)
    node = MTreeNode(is_leaf=bool(_page_field(page, "leaf")))
    routing = _page_field(page, "routing")
    node.routing = None if routing is None else _as_vector(routing, dimension)
    node.radius = float(_page_field(page, "radius"))
    node.count = int(_page_field(page, "count"))
    if node.is_leaf:
        node.entries = _decode_entries(_page_field(page, "entries"))
        node.centers, node.radii = pack(node.entries)
    for _ in range(int(_page_field(page, "children"))):
        node.children.append(_rebuild_mtree_node(pages, dimension))
    return node


def _rebuild_vptree_node(pages: "Iterator[dict]", dimension: int) -> VPTreeNode:
    page = _next_page(pages)
    node = VPTreeNode(is_leaf=bool(_page_field(page, "leaf")))
    node.vantage = _as_vector(_page_field(page, "vantage"), dimension)
    node.lo = float(_page_field(page, "lo"))
    node.hi = float(_page_field(page, "hi"))
    node.r_max = float(_page_field(page, "r_max"))
    node.count = int(_page_field(page, "count"))
    node.split_radius = float(_page_field(page, "split_radius"))
    if node.is_leaf:
        node.entries = _decode_entries(_page_field(page, "entries"))
        node.centers, node.radii = pack(node.entries)
    for _ in range(int(_page_field(page, "children"))):
        node.children.append(_rebuild_vptree_node(pages, dimension))
    return node


def _as_vector(values: Any, dimension: int) -> Any:
    import numpy as np

    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1 or array.shape[0] != dimension:
        raise SnapshotCorruptionError(
            f"snapshot vector of shape {array.shape} does not match the "
            f"declared dimension {dimension}"
        )
    return array


def _next_page(pages: "Iterator[dict]") -> dict:
    try:
        return next(pages)
    except StopIteration:
        raise SnapshotCorruptionError(
            "snapshot ended before the declared node structure was complete"
        ) from None


def _describe_index(index: "Any") -> "tuple[str, dict, list[dict]]":
    """(kind, params, pages) for any supported index instance."""
    if isinstance(index, LinearIndex):
        return "linear", {}, list(_linear_pages(index))
    if isinstance(index, SSTree):
        params = {"max_entries": index.max_entries}
        return "sstree", params, list(_sstree_pages(index.root))
    if isinstance(index, MTree):
        params = {"max_entries": index.max_entries}
        return "mtree", params, list(_mtree_pages(index.root))
    if isinstance(index, VPTree):
        params = {"leaf_capacity": index.leaf_capacity}
        return "vptree", params, list(_vptree_pages(index.root))
    raise SnapshotError(
        f"cannot snapshot object of type {type(index).__name__!r}; "
        "supported indexes: LinearIndex, SSTree, MTree, VPTree"
    )


def _rebuild_index(
    kind: str, params: dict, dimension: int, pages: "list[dict]"
) -> "Any":
    page_iter = iter(pages)
    if kind == "linear":
        entries: "list[tuple[object, Hypersphere]]" = []
        for page in pages:
            entries.extend(_decode_entries(_page_field(page, "entries")))
        return LinearIndex(entries)
    if kind == "sstree":
        tree = SSTree(dimension, max_entries=int(params.get("max_entries", 16)))
        tree.root = _rebuild_sstree_node(page_iter, dimension)
        return tree
    if kind == "mtree":
        mtree = MTree(dimension, max_entries=int(params.get("max_entries", 16)))
        mtree.root = _rebuild_mtree_node(page_iter, dimension)
        return mtree
    if kind == "vptree":
        root = _rebuild_vptree_node(page_iter, dimension)
        return VPTree(root, dimension, int(params.get("leaf_capacity", 16)))
    raise SnapshotError(f"unknown snapshot index kind {kind!r}")


# ----------------------------------------------------------------------
# Frame helpers
# ----------------------------------------------------------------------
def _frame(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + payload + _U32.pack(
        zlib.crc32(payload) & 0xFFFFFFFF
    )


def _read_exact(handle: BinaryIO, size: int, what: str) -> bytes:
    data = _io_read(handle, size)
    if len(data) != size:
        raise SnapshotCorruptionError(
            f"snapshot truncated while reading {what} "
            f"(wanted {size} bytes, got {len(data)})"
        )
    return data


def _read_frame(handle: BinaryIO, remaining: int, what: str) -> bytes:
    header = _read_exact(handle, _U32.size, f"{what} length")
    (length,) = _U32.unpack(header)
    if length + _U32.size > remaining:
        raise SnapshotCorruptionError(
            f"snapshot {what} declares {length} bytes but only "
            f"{remaining - _U32.size} remain in the file"
        )
    payload = _read_exact(handle, length, what)
    checksum = _read_exact(handle, _U32.size, f"{what} checksum")
    (expected,) = _U32.unpack(checksum)
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise SnapshotCorruptionError(
            f"snapshot {what} failed its CRC check "
            f"(stored {expected:#010x}, computed {actual:#010x})"
        )
    return payload


def _parse_json(payload: bytes, what: str) -> dict:
    try:
        parsed = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptionError(
            f"snapshot {what} is not valid JSON despite a passing CRC: {error}"
        ) from error
    if not isinstance(parsed, dict):
        raise SnapshotCorruptionError(f"snapshot {what} is not a JSON object")
    return parsed


def _dump_json(payload: dict, what: str) -> bytes:
    try:
        return json.dumps(
            payload, allow_nan=False, separators=(",", ":")
        ).encode("utf-8")
    except ValueError as error:
        raise SnapshotError(f"cannot serialise snapshot {what}: {error}") from error


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save(index: "Any", path: "str | os.PathLike[str]") -> dict:
    """Write a checksummed snapshot of *index* to *path* atomically.

    Returns a summary dict (``kind``, ``dimension``, ``count``,
    ``pages``, ``bytes``).  The write lands in a temporary file first
    and is renamed over *path* only after a successful flush+fsync, so
    an interrupted save never destroys an existing snapshot.
    """
    with obs.trace(names.SNAPSHOT_SAVE_SPAN):
        kind, params, pages = _describe_index(index)
        header = {
            "kind": kind,
            "dimension": index.dimension,
            "count": len(index),
            "pages": len(pages),
            "params": params,
        }
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        descriptor, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        total = 0
        try:
            with os.fdopen(descriptor, "wb") as handle:
                _io_write(handle, MAGIC + _U32.pack(VERSION))
                total += len(MAGIC) + _U32.size
                framed = _frame(_dump_json(header, "header"))
                _io_write(handle, framed)
                total += len(framed)
                for page in pages:
                    framed = _frame(_dump_json(page, "page"))
                    _io_write(handle, framed)
                    total += len(framed)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        _fsync_directory(directory)
    if obs.ENABLED:
        obs.incr(names.SNAPSHOT_SAVES)
        obs.incr(names.SNAPSHOT_PAGES_WRITTEN, len(pages))
        obs.observe(names.SNAPSHOT_BYTES, total)
    return {
        "kind": kind,
        "dimension": header["dimension"],
        "count": header["count"],
        "pages": len(pages),
        "bytes": total,
    }


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _read_snapshot(
    path: "str | os.PathLike[str]",
    on_page: "Callable[[dict], None] | None",
) -> dict:
    """Parse and integrity-check a snapshot; returns the header.

    Every page is CRC-verified; *on_page* (when given) receives each
    decoded page in file order.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        handle: BinaryIO = open(path, "rb")
    except OSError as error:
        raise SnapshotError(f"cannot open snapshot {path!r}: {error}") from error
    with handle:
        remaining = size
        prefix = _read_exact(handle, len(MAGIC) + _U32.size, "magic and version")
        remaining -= len(prefix)
        if prefix[: len(MAGIC)] != MAGIC:
            raise SnapshotCorruptionError(
                f"{path!r} is not a repro index snapshot (bad magic)"
            )
        (version,) = _U32.unpack(prefix[len(MAGIC) :])
        if version != VERSION:
            raise SnapshotError(
                f"snapshot {path!r} has format version {version}; this "
                f"build reads version {VERSION}"
            )
        header_payload = _read_frame(handle, remaining, "header")
        remaining -= len(header_payload) + 2 * _U32.size
        header = _parse_json(header_payload, "header")
        for key in ("kind", "dimension", "count", "pages", "params"):
            if key not in header:
                raise SnapshotCorruptionError(
                    f"snapshot header is missing the {key!r} field"
                )
        page_count = int(header["pages"])
        if page_count < 0:
            raise SnapshotCorruptionError("snapshot header declares negative pages")
        for number in range(page_count):
            payload = _read_frame(handle, remaining, f"page {number}")
            remaining -= len(payload) + 2 * _U32.size
            if on_page is not None:
                on_page(_parse_json(payload, f"page {number}"))
        if _io_read(handle, 1):
            raise SnapshotCorruptionError(
                "snapshot carries trailing bytes after the final page"
            )
    header["bytes"] = size
    return header


def load(path: "str | os.PathLike[str]") -> "Any":
    """Rebuild an index from a snapshot, verifying every CRC on the way.

    Raises :class:`~repro.exceptions.SnapshotCorruptionError` on any
    integrity failure and :class:`~repro.exceptions.SnapshotError` on
    unreadable files or unsupported versions.
    """
    with obs.trace(names.SNAPSHOT_LOAD_SPAN):
        pages: "list[dict]" = []
        try:
            header = _read_snapshot(path, pages.append)
            index = _rebuild_index(
                str(header["kind"]),
                dict(header["params"]),
                int(header["dimension"]),
                pages,
            )
        except SnapshotCorruptionError:
            if obs.ENABLED:
                obs.incr(names.SNAPSHOT_CORRUPTIONS)
            raise
        if len(index) != int(header["count"]):
            if obs.ENABLED:
                obs.incr(names.SNAPSHOT_CORRUPTIONS)
            raise SnapshotCorruptionError(
                f"snapshot declares {header['count']} entries but "
                f"rebuilding produced {len(index)}"
            )
    if obs.ENABLED:
        obs.incr(names.SNAPSHOT_LOADS)
        obs.incr(names.SNAPSHOT_PAGES_READ, len(pages))
    return index


def verify(path: "str | os.PathLike[str]") -> dict:
    """Integrity-check a snapshot without rebuilding the index.

    Returns the header summary (``kind``, ``dimension``, ``count``,
    ``pages``, ``bytes``) when every CRC passes; raises
    :class:`~repro.exceptions.SnapshotCorruptionError` otherwise.
    """
    with obs.trace(names.SNAPSHOT_VERIFY_SPAN):
        counted = 0

        def count(_: dict) -> None:
            nonlocal counted
            counted += 1

        try:
            header = _read_snapshot(path, count)
        except SnapshotCorruptionError:
            if obs.ENABLED:
                obs.incr(names.SNAPSHOT_CORRUPTIONS)
            raise
    if obs.ENABLED:
        obs.incr(names.SNAPSHOT_VERIFIES)
        obs.incr(names.SNAPSHOT_PAGES_READ, counted)
    return {
        "kind": header["kind"],
        "dimension": header["dimension"],
        "count": header["count"],
        "pages": header["pages"],
        "bytes": header["bytes"],
    }

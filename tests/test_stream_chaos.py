"""Crash matrix: SIGKILL at every WAL/compaction seam under load.

A child process opens a streaming index, applies a mutation workload,
and prints one ``ACK <seq>`` line after each durably acknowledged
mutation.  A hook installed at one I/O seam kills the process with
SIGKILL at a chosen call — before a write, mid-frame, around an fsync,
or on either side of the compaction rename.  The parent then recovers
the directory and asserts the durability contract:

- **no acked mutation is lost** — every printed seq is replayed;
- **no mutation is half-applied** — the recovered history is a
  contiguous seq prefix ``1..m`` (a torn tail frame is dropped whole);
- **at most the in-flight record is in limbo** — ``m`` exceeds the
  acked count by at most one (a record can be durable before its ack
  escapes the process, never more than one);
- **recovered answers are oracle answers** — queries against the
  reopened index equal a linear-scan over a dict replay of exactly the
  recovered records.

This file is the body of ``make stream-chaos`` and the CI job of the
same name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.data.synthetic import synthetic_dataset
from repro.geometry.hypersphere import Hypersphere
from repro.queries.knn import knn_reference
from repro.queries.rknn import rnn_candidates
from repro.stream.engine import StreamingIndex

N, DIMENSION, K = 40, 3, 5
MUTATIONS = 12
#: The child checkpoints after this many mutations in compact scenarios.
COMPACT_AT = 8

_CHILD_SCRIPT = r"""
import importlib, json, os, signal, sys

from repro.geometry.hypersphere import Hypersphere
from repro.stream import wal as wal_mod
from repro.stream.engine import StreamingIndex

directory, spec = sys.argv[1], sys.argv[2]
seam, nth, mode = (spec.split(":") + ["0", ""])[:3]
nth = int(nth)
state = {"calls": 0}


def die():
    sys.stdout.flush()
    os.kill(os.getpid(), signal.SIGKILL)


if seam == "append":
    real_write = wal_mod._io_write

    def hooked_write(handle, data):
        state["calls"] += 1
        if state["calls"] == nth:
            if mode == "mid":
                handle.write(data[: len(data) // 2])
                handle.flush()
            die()
        real_write(handle, data)

    wal_mod._io_write = hooked_write
elif seam == "fsync":
    real_fsync = wal_mod._fsync

    def hooked_fsync(fileno):
        state["calls"] += 1
        if state["calls"] == nth:
            if mode == "post":
                real_fsync(fileno)
            die()  # "skip" mode: the lying disk crashed before syncing
        real_fsync(fileno)

    wal_mod._fsync = hooked_fsync
elif seam == "rename":
    compact_mod = importlib.import_module("repro.stream.compact")
    real_rename = compact_mod._rename

    def hooked_rename(source, destination):
        if mode == "post":
            real_rename(source, destination)
        die()

    compact_mod._rename = hooked_rename

mutations = json.loads(sys.stdin.read())
compact_at = int(sys.argv[3])
stream = StreamingIndex.open(directory)
for step, (op, key, center, radius) in enumerate(mutations):
    if op == "insert":
        seq = stream.insert(key, Hypersphere(center, radius))
    else:
        seq = stream.delete(key)
    print(f"ACK {seq}", flush=True)
    if seam == "rename" and step + 1 == compact_at:
        stream.checkpoint()
print("DONE", flush=True)
"""

SCENARIOS = (
    # (seam:nth:mode, description)
    "append:2:pre",    # killed before any byte of record 2
    "append:2:mid",    # record 2 torn mid-frame
    "append:7:pre",
    "append:7:mid",
    "fsync:3:post",    # durable but never acked
    "fsync:3:skip",    # lying disk: sync skipped, then the crash
    "rename:0:pre",    # compaction dies before its commit point
    "rename:0:post",   # compaction commits, dies before WAL truncate
)


@pytest.fixture(scope="module")
def base_entries():
    dataset = synthetic_dataset(N, DIMENSION, mu=0.15, seed=7)
    return list(dataset.items())


@pytest.fixture(scope="module")
def workload():
    """Deterministic insert/delete mix, JSON-shaped for the child."""
    fresh = synthetic_dataset(MUTATIONS, DIMENSION, mu=0.15, seed=77)
    spheres = [sphere for _, sphere in fresh.items()]
    mix = []
    for i, sphere in enumerate(spheres):
        if i % 3 == 2:
            mix.append(["delete", i // 3, None, None])
        else:
            mix.append([
                "insert",
                1000 + i,
                [float(c) for c in sphere.center],
                float(sphere.radius),
            ])
    return mix


def run_child(directory: str, spec: str, workload) -> "list[int]":
    """Run the child until its seam kills it; return the acked seqs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, directory, spec, str(COMPACT_AT)],
        input=json.dumps(workload),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == -9, (
        f"child survived spec {spec}: rc={proc.returncode}, "
        f"stderr={proc.stderr[-500:]}"
    )
    acked = [
        int(line.split()[1])
        for line in proc.stdout.splitlines()
        if line.startswith("ACK ")
    ]
    assert "DONE" not in proc.stdout
    return acked


def oracle_replay(base_entries, records):
    """The dumb ground truth: dict replay of the recovered WAL records."""
    table = dict(base_entries)
    for record in records:
        if record.op == "insert":
            table[record.key] = record.sphere()
        else:
            table.pop(record.key, None)
    return list(table.items())


@pytest.mark.parametrize("spec", SCENARIOS)
def test_kill_at_seam_recovers_exactly(tmp_path, base_entries, workload, spec):
    directory = str(tmp_path / "stream")
    StreamingIndex.create(directory, base_entries, kind="sstree").close()

    acked = run_child(directory, spec, workload)
    seam, _, mode = (spec.split(":") + [""])[:3]

    with StreamingIndex.open(directory) as recovered:
        replayed = [m.seq for m in recovered.wal.replayed]

        # Contiguous prefix: nothing half-applied, nothing reordered.
        assert replayed == list(range(1, len(replayed) + 1))

        if seam == "rename":
            # The compaction may or may not have committed (and with it
            # truncated nothing — the kill lands before the truncate),
            # but either way every acked mutation must have survived,
            # and replay over old or new snapshot converges.
            applied = workload[: len(acked)]
        else:
            # No acked mutation lost; at most the in-flight record
            # (durable before its ack escaped) may additionally appear.
            assert set(range(1, len(acked) + 1)) <= set(replayed)
            assert len(replayed) - len(acked) <= 1
            if mode in ("pre", "mid"):
                # Killed before the record could become durable: the
                # recovered history is *exactly* the acked history.
                assert len(replayed) == len(acked)
            applied = workload[: len(replayed)]

        # The effective dataset equals the dumb oracle over exactly the
        # surviving history.
        oracle = oracle_replay(base_entries, _as_records(applied))
        assert dict(recovered.effective_entries()) == dict(oracle)

        # And so do the query answers, bit for bit on the key sets.
        probe = synthetic_dataset(3, DIMENSION, mu=0.15, seed=99)
        for _, query in probe.items():
            got = recovered.query_knn(query, K)
            want = knn_reference(oracle, query, K)
            assert got.key_set() == want.key_set()
            assert set(recovered.query_rknn(query)) == set(
                rnn_candidates(oracle, query)
            )

        # The recovered index keeps working: appends continue past the
        # durable history with strictly increasing seqs.
        next_seq = recovered.insert(
            "post-crash", Hypersphere([100.0, 100.0, 100.0], 0.5)
        )
        assert next_seq >= len(replayed) + 1


def _as_records(applied):
    """Workload rows -> objects with the .op/.key/.sphere interface."""
    from repro.stream.wal import Mutation

    records = []
    for seq, (op, key, center, radius) in enumerate(applied, start=1):
        if op == "insert":
            records.append(
                Mutation.insert(key, Hypersphere(center, radius), seq=seq)
            )
        else:
            records.append(Mutation.delete(key, seq=seq))
    return records


def test_clean_run_reaches_done(tmp_path, base_entries, workload):
    """Sanity: without a kill spec the child completes and exits 0."""
    directory = str(tmp_path / "stream")
    StreamingIndex.create(directory, base_entries, kind="sstree").close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, directory, "none:0:",
         str(COMPACT_AT)],
        input=json.dumps(workload),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "DONE" in proc.stdout
    with StreamingIndex.open(directory) as recovered:
        assert recovered.last_seq == len(workload)
        oracle = oracle_replay(base_entries, _as_records(workload))
        assert dict(recovered.effective_entries()) == dict(oracle)

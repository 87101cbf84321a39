"""Boot, time, measure and stop a real ``repro serve`` process.

A boot is timed from spawn until ``GET /readyz`` answers 200, so it
covers interpreter start, imports, snapshot or WAL recovery and, with
``--workers``, spawning and loading every worker.  Each server runs in
its own session so that stopping it can never leave a worker behind.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import IO, Sequence

__all__ = ["ServerProcess", "free_port"]

#: Longest a boot may take before the run gives up.
BOOT_TIMEOUT_S = 60.0
#: Longest a graceful stop may take before the process group is killed.
STOP_TIMEOUT_S = 10.0


def free_port() -> int:
    """An ephemeral loopback port nobody is listening on right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def _ready(port: int) -> bool:
    """Whether ``/readyz`` answers 200 (a refused connection is not)."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as conn:
            conn.sendall(b"GET /readyz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            return conn.recv(16).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> "list[int]":
    """*root* and every process below it, from ``/proc``."""
    parents: "dict[int, int]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # The command name may hold spaces; fields resume after ')'.
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


class ServerProcess:
    """One ``repro serve`` child process on a loopback port."""

    def __init__(
        self, serve_args: "Sequence[str]", *, env: "dict[str, str]", log: "IO[bytes]"
    ) -> None:
        self.port = free_port()
        self._argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *serve_args,
            "--host",
            "127.0.0.1",
            "--port",
            str(self.port),
        ]
        self._env = env
        self._log = log
        self._process: "subprocess.Popen[bytes] | None" = None

    def start(self) -> float:
        """Spawn and wait for readiness; returns the boot time in seconds."""
        started = time.perf_counter()
        self._process = subprocess.Popen(
            self._argv,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
            env=self._env,
            start_new_session=True,
        )
        while not _ready(self.port):
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self._process.returncode} "
                    "before it was ready"
                )
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"repro serve not ready after {BOOT_TIMEOUT_S} s")
            time.sleep(0.005)
        return time.perf_counter() - started

    def rss_peak_mb(self) -> float:
        """Sum of peak resident sets (VmHWM) over the server's process tree."""
        if self._process is None:
            return 0.0
        return sum(_vm_hwm_kib(pid) for pid in _descendants(self._process.pid)) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the graceful drain), then kill whatever is left."""
        process = self._process
        if process is None:
            return
        self._process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        # Workers are the server's children, not ours: wait until the
        # whole session is gone.
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

"""Make the package under test importable; shrunken workload specs.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.workloads import SPECS, WorkloadSpec  # noqa: E402

#: Sizes small enough that a full boot-drive-check round takes seconds.
SMOKE_SIZES = {
    "knn-large": {"n": 300, "distinct": 12},
    "serve-pool": {"n": 60, "distinct": 12},
    "mutate-mix": {"n": 300, "wal_records": 40, "distinct": 8},
    "flat-scans": {"n": 40, "distinct": 8},
}

#: Seconds each smoke run drives its workload.
SMOKE_SECONDS = 1.5


def smoke_spec(name: str) -> WorkloadSpec:
    """*name*'s spec shrunk for tests: same shape, tiny data, 1 boot."""
    return dataclasses.replace(
        SPECS[name], **SMOKE_SIZES[name], boots=1
    )


@pytest.fixture(params=sorted(SPECS))
def workload(request: pytest.FixtureRequest) -> str:
    return str(request.param)

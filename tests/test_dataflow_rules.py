"""Fixture-based tests for the DOM2xx dataflow rules.

Each rule gets at least one seeded violation that must be caught and
one compliant fixture mirroring the real tree's idiom that must stay
clean — including the acceptance-criteria mutation: the shipped
``wal.py`` with its ``append`` fsync deleted must be caught by DOM203.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths, rules_by_name

REPO_ROOT = Path(__file__).resolve().parent.parent
REAL_WAL = REPO_ROOT / "src" / "repro" / "stream" / "wal.py"
REAL_QUERIES = REPO_ROOT / "src" / "repro" / "queries"


def lint_tree(
    tmp_path: Path,
    files: "dict[str, str]",
    rules: "list[str]",
    tests: "dict[str, str] | None" = None,
):
    """Write a fixture ``repro`` tree (plus optional ``tests``) and lint it."""
    for relative, source in files.items():
        file = tmp_path / "repro" / relative
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source), encoding="utf-8")
    if tests is not None:
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir(exist_ok=True)
        for name, source in tests.items():
            (tests_dir / name).write_text(
                textwrap.dedent(source), encoding="utf-8"
            )
    return lint_paths(
        [tmp_path / "repro"],
        rules=rules_by_name(rules),
        root=tmp_path,
        cache=False,
    )


def found(report) -> "list[tuple[str, int]]":
    return [(f.rule, f.line) for f in report.actionable]


class TestAsyncBlockingCall:
    def test_time_sleep_in_async_handler_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
                """
            },
            ["DOM201"],
        )
        assert found(report) == [("async-blocking-call", 4)]

    def test_os_fsync_and_open_are_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                import os

                async def persist(fd, path):
                    os.fsync(fd)
                    return open(path).read()
                """
            },
            ["DOM201"],
        )
        assert [rule for rule, _ in found(report)] == [
            "async-blocking-call",
            "async-blocking-call",
        ]

    def test_nested_sync_def_is_executor_territory(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                import time

                async def handler(loop, executor, ctx):
                    def work():
                        time.sleep(0.1)
                    await loop.run_in_executor(executor, ctx.run, work)
                """
            },
            ["DOM201"],
        )
        assert found(report) == []

    def test_outside_serve_is_not_checked(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "stream/h.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
                """
            },
            ["DOM201"],
        )
        assert found(report) == []


class TestExecutorContextPropagation:
    def test_bare_submission_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                async def hop(loop, executor, work):
                    return await loop.run_in_executor(executor, work)
                """
            },
            ["DOM202"],
        )
        assert found(report) == [("executor-context-propagation", 2)]

    def test_copy_context_run_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                import contextvars

                async def hop(loop, executor, work):
                    ctx = contextvars.copy_context()
                    return await loop.run_in_executor(executor, ctx.run, work)
                """
            },
            ["DOM202"],
        )
        assert found(report) == []

    def test_executor_submit_is_also_checked(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/h.py": """\
                def kick(executor, work):
                    return executor.submit(work)
                """
            },
            ["DOM202"],
        )
        assert found(report) == [("executor-context-propagation", 2)]


class TestWalFsyncBeforeAck:
    def test_ack_without_fsync_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "stream/w.py": """\
                def append(handle, framed):
                    _io_write(handle, framed)
                    return True
                """
            },
            ["DOM203"],
        )
        assert found(report) == [("wal-fsync-before-ack", 2)]

    def test_fsync_before_return_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "stream/w.py": """\
                def append(handle, framed):
                    _io_write(handle, framed)
                    handle.flush()
                    _fsync(handle.fileno())
                    return True
                """
            },
            ["DOM203"],
        )
        assert found(report) == []

    def test_one_branch_skipping_the_fsync_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "stream/w.py": """\
                def append(handle, framed, fast):
                    _io_write(handle, framed)
                    if fast:
                        return True
                    _fsync(handle.fileno())
                    return True
                """
            },
            ["DOM203"],
        )
        assert found(report) == [("wal-fsync-before-ack", 2)]

    def test_raise_path_is_not_an_ack(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "stream/w.py": """\
                def append(handle, framed):
                    _io_write(handle, framed)
                    raise OSError("disk gone")
                """
            },
            ["DOM203"],
        )
        assert found(report) == []

    def test_shipped_wal_is_clean(self, tmp_path):
        target = tmp_path / "repro" / "stream" / "wal.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            REAL_WAL.read_text(encoding="utf-8"), encoding="utf-8"
        )
        report = lint_paths(
            [tmp_path / "repro"], rules=rules_by_name(["DOM203"]),
            root=tmp_path, cache=False,
        )
        assert found(report) == []

    def test_mutated_wal_acking_before_fsync_is_caught(self, tmp_path):
        """Acceptance criterion: delete append()'s fsync from the real
        wal.py and DOM203 must flag the append call."""
        source = REAL_WAL.read_text(encoding="utf-8")
        mutation = "\n        _fsync(handle.fileno())"
        assert source.count(mutation) == 1  # unique to WriteAheadLog.append
        mutated = source.replace(mutation, "")
        assert mutated != source
        target = tmp_path / "repro" / "stream" / "wal.py"
        target.parent.mkdir(parents=True)
        target.write_text(mutated, encoding="utf-8")
        report = lint_paths(
            [tmp_path / "repro"], rules=rules_by_name(["DOM203"]),
            root=tmp_path, cache=False,
        )
        assert [f.rule for f in report.actionable] == ["wal-fsync-before-ack"]
        (finding,) = report.actionable
        assert "_io_write" in finding.snippet
        assert "append" in finding.message


class TestUnlockedSharedState:
    VIOLATING = """\
    import contextvars

    class Worker:
        async def handle(self, loop, executor):
            self.count = 0

            def bump():
                self.count = 1

            ctx = contextvars.copy_context()
            await loop.run_in_executor(executor, ctx.run, bump)
    """

    def test_unlocked_cross_context_mutation_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path, {"serve/w.py": self.VIOLATING}, ["DOM204"]
        )
        assert [f.rule for f in report.actionable] == ["unlocked-shared-state"]
        assert "count" in report.actionable[0].message

    def test_lock_on_both_sides_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/w.py": """\
                import contextvars

                class Worker:
                    async def handle(self, loop, executor):
                        with self._lock:
                            self.count = 0

                        def bump():
                            with self._lock:
                                self.count = 1

                        ctx = contextvars.copy_context()
                        await loop.run_in_executor(executor, ctx.run, bump)
                """
            },
            ["DOM204"],
        )
        assert found(report) == []

    def test_single_context_mutation_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/w.py": """\
                class Worker:
                    async def handle(self):
                        self.count = 0
                        self.count += 1
                """
            },
            ["DOM204"],
        )
        assert found(report) == []

    def test_submitted_method_counts_as_thread_context(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/w.py": """\
                class Worker:
                    async def handle(self, loop, executor, ctx):
                        self.state = "hot"
                        await loop.run_in_executor(
                            executor, ctx.run, self._rebuild
                        )

                    def _rebuild(self):
                        self.state = "cold"
                """
            },
            ["DOM204"],
        )
        assert [f.rule for f in report.actionable] == ["unlocked-shared-state"]
        assert "state" in report.actionable[0].message


class TestFaultSeamCoverage:
    FAULTS = 'SEAMS = ("quartic", "snapshot")\n'
    COVERING_TEST = """\
    from repro.robust import faults

    def test_seams():
        with faults.inject("quartic", mode="nan"):
            pass
        with faults.inject("snapshot", mode="raise"):
            pass
    """

    def test_uncovered_seam_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"robust/faults.py": self.FAULTS},
            ["DOM205"],
            tests={
                "test_chaos.py": """\
                from repro.robust import faults

                def test_quartic():
                    with faults.inject("quartic", mode="nan"):
                        pass
                """
            },
        )
        assert [f.rule for f in report.actionable] == ["fault-seam-coverage"]
        assert "snapshot" in report.actionable[0].message

    def test_fully_covered_seams_are_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"robust/faults.py": self.FAULTS},
            ["DOM205"],
            tests={"test_chaos.py": self.COVERING_TEST},
        )
        assert found(report) == []

    def test_strings_in_non_injecting_tests_do_not_count(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"robust/faults.py": self.FAULTS},
            ["DOM205"],
            tests={
                "test_chaos.py": """\
                from repro.robust import faults

                def test_quartic():
                    with faults.inject("quartic", mode="nan"):
                        pass
                """,
                # Mentions 'snapshot' but never injects: no coverage.
                "test_other.py": 'NAME = "snapshot"\n',
            },
        )
        assert [f.rule for f in report.actionable] == ["fault-seam-coverage"]

    def test_without_a_tests_dir_the_rule_stays_silent(self, tmp_path):
        report = lint_tree(
            tmp_path, {"robust/faults.py": self.FAULTS}, ["DOM205"]
        )
        assert found(report) == []


class TestBudgetChargeCoverage:
    def test_unbudgeted_candidate_loop_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                def browse(payload):
                    for key, sphere in payload.entries:
                        yield key, sphere
                """
            },
            ["DOM206"],
        )
        assert found(report) == [("budget-charge-coverage", 2)]

    def test_uncharged_live_budget_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                from repro.resilience.budget import current as current_budget

                def scan(index):
                    budget = current_budget()
                    hits = []
                    for key in index.entries:
                        hits.append(key)
                    return hits
                """
            },
            ["DOM206"],
        )
        assert found(report) == [("budget-charge-coverage", 6)]

    def test_charge_inside_body_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                def scan(index, budget):
                    while heap:
                        if budget is not None and budget.charge_node() is not None:
                            return None
                        expand(heap)
                """
            },
            ["DOM206"],
        )
        assert found(report) == []

    def test_paired_budget_none_branches_are_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                from repro.resilience.budget import current as current_budget

                def scan(index):
                    budget = current_budget()
                    if budget is None:
                        for key in index.entries:
                            keep(key)
                    else:
                        for key in index.entries:
                            if budget.charge_candidate() is not None:
                                break
                            keep(key)
                """
            },
            ["DOM206"],
        )
        assert found(report) == []

    def test_bulk_charge_before_loop_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                from repro.resilience.budget import current as current_budget

                def scan(index, candidates):
                    budget = current_budget()
                    if budget is not None:
                        budget.charge_candidate(len(candidates))
                    for key in candidates:
                        keep(key)
                """
            },
            ["DOM206"],
        )
        assert found(report) == []

    def test_transitive_charge_through_helper_is_compliant(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                def _visit(node, budget):
                    if budget is not None and budget.charge_node() is not None:
                        return
                    for child in node.children:
                        _visit(child, budget)

                def scan(root, budget):
                    if budget is not None and budget.charge_node() is not None:
                        return None
                    for child in root.children:
                        _visit(child, budget)
                """
            },
            ["DOM206"],
        )
        assert found(report) == []

    def test_outside_queries_is_not_checked(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "serve/scan.py": """\
                def browse(payload):
                    for key in payload.entries:
                        yield key
                """
            },
            ["DOM206"],
        )
        assert found(report) == []

    def test_uncharged_block_sweep_is_caught(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "queries/scan.py": """\
                from repro.resilience.budget import current as current_budget

                def scan(n):
                    budget = current_budget()
                    for lo, hi in blocks(n):
                        sweep(lo, hi)
                """
            },
            ["DOM206"],
        )
        assert found(report) == [("budget-charge-coverage", 5)]

    @pytest.mark.parametrize(
        "module, charge",
        [
            ("rknn", "charge_rows(budget, lo, hi, 1)"),
            ("dominating", "charge_rows(budget, lo, hi, n)"),
        ],
    )
    def test_dropped_charge_before_a_block_sweep_is_caught(
        self, tmp_path, module, charge
    ):
        """The shipped flat scans are clean; with the per-object charge
        before a block sweep dropped, DOM206 flags the block loop."""
        source = (REAL_QUERIES / f"{module}.py").read_text(encoding="utf-8")
        assert source.count(charge) == 1
        files = {"queries/blocks.py": (REAL_QUERIES / "blocks.py").read_text()}
        files[f"queries/{module}.py"] = source
        assert found(lint_tree(tmp_path, files, ["DOM206"])) == []
        files[f"queries/{module}.py"] = source.replace(charge, "hi")
        report = lint_tree(tmp_path, files, ["DOM206"])
        assert any(
            "for lo, hi in blocks(n):" in finding.snippet
            for finding in report.actionable
        )

"""Cross-module facts for dataflow rules: the domlint symbol index.

Per-file AST passes cannot answer two questions the DOM2xx rules need:

- *does this helper charge the budget, possibly transitively?*
  (a traversal whose per-node charges sit in a helper it calls
  charges even though its own loop mentions no ``Budget``), and
- *is this fault seam exercised by any chaos test?*  (the seam registry
  lives in ``robust/faults.py``; the coverage evidence lives under
  ``tests/``).

The :class:`SymbolIndex` is built once per lint run over every
collected file plus the nearest ``tests/`` directory, then handed to
each rule via ``FileContext.symbols``.  Resolution is by *bare function
name* — intentionally coarse: name collisions merge call edges, which
over-approximates "charges budget" and therefore only ever relaxes
DOM206 (fewer false positives, never a crash on dynamic dispatch).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.analysis.base import attribute_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.base import FileContext

__all__ = ["FunctionInfo", "SymbolIndex", "discover_tests_dir"]

#: Budget methods that terminate the "charges transitively" fixpoint.
CHARGE_TERMINALS = frozenset(
    {"charge_candidate", "charge_node", "charge_escalation"}
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function definition somewhere in the linted tree."""

    module: str
    name: str
    is_async: bool
    #: Terminal names of every call made directly in the body
    #: (nested ``def`` bodies excluded — they run on their own
    #: activation and have their own entry).
    calls: "frozenset[str]"

    @property
    def charges_directly(self) -> bool:
        return bool(self.calls & CHARGE_TERMINALS)


def _direct_calls(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> "frozenset[str]":
    """Terminal call names in *fn*'s own body, excluding nested defs."""
    names: set[str] = set()
    stack: "list[ast.AST]" = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # separate activation
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if chain:
                names.add(chain[-1])
        stack.extend(ast.iter_child_nodes(node))
    return frozenset(names)


def discover_tests_dir(start: Path) -> "Path | None":
    """The nearest ``tests/`` directory at or above *start* that holds
    ``test_*.py`` files, or None.  Fixture trees in ``/tmp`` therefore
    never pick up the real repository's tests."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        tests = candidate / "tests"
        if tests.is_dir() and any(tests.glob("test_*.py")):
            return tests
    return None


def _covered_seams(tests_dir: Path) -> "tuple[frozenset[str], int]":
    """String constants appearing in test files that call ``inject``.

    A seam is considered chaos-covered when its name occurs as a string
    literal (directly in an ``inject(...)`` call, or in a seam tuple a
    parametrised test feeds into one) in any test file that performs
    fault injection.  Files that never call ``inject`` contribute
    nothing, so an unrelated docstring cannot launder coverage.
    """
    covered: set[str] = set()
    scanned = 0
    for test_path in sorted(tests_dir.rglob("test_*.py")):
        try:
            tree = ast.parse(
                test_path.read_text(encoding="utf-8"), filename=str(test_path)
            )
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        injects = any(
            isinstance(node, ast.Call)
            and (chain := attribute_chain(node.func)) is not None
            and chain[-1] == "inject"
            for node in ast.walk(tree)
        )
        if not injects:
            continue
        scanned += 1
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                covered.add(node.value)
    return frozenset(covered), scanned


@dataclass
class SymbolIndex:
    """Whole-run facts shared by every rule invocation."""

    functions: "list[FunctionInfo]" = field(default_factory=list)
    #: Bare names of functions that charge budget, transitively.
    charging: "frozenset[str]" = frozenset()
    #: Strings found in fault-injecting test files (see DOM205).
    covered_seams: "frozenset[str]" = frozenset()
    #: Where coverage evidence was looked for; None disables DOM205.
    tests_dir: "Path | None" = None
    #: Number of injecting test files scanned for seam strings.
    test_files_scanned: int = 0

    @classmethod
    def build(
        cls,
        contexts: "Sequence[FileContext]",
        tests_dir: "Path | None" = None,
    ) -> "SymbolIndex":
        functions: "list[FunctionInfo]" = []
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        FunctionInfo(
                            module=ctx.module,
                            name=node.name,
                            is_async=isinstance(node, ast.AsyncFunctionDef),
                            calls=_direct_calls(node),
                        )
                    )
        charging = _charging_fixpoint(functions)
        covered: "frozenset[str]" = frozenset()
        scanned = 0
        if tests_dir is not None:
            covered, scanned = _covered_seams(tests_dir)
        return cls(
            functions=functions,
            charging=charging,
            covered_seams=covered,
            tests_dir=tests_dir,
            test_files_scanned=scanned,
        )

    def functions_named(self, name: str) -> "Iterator[FunctionInfo]":
        for info in self.functions:
            if info.name == name:
                yield info


def _charging_fixpoint(
    functions: "Sequence[FunctionInfo]",
) -> "frozenset[str]":
    """Bare names whose calls reach a ``Budget.charge_*`` method."""
    calls_by_name: "dict[str, set[str]]" = {}
    for info in functions:
        calls_by_name.setdefault(info.name, set()).update(info.calls)
    charging: set[str] = {
        name
        for name, calls in calls_by_name.items()
        if calls & CHARGE_TERMINALS
    }
    changed = True
    while changed:
        changed = False
        for name, calls in calls_by_name.items():
            if name not in charging and calls & charging:
                charging.add(name)
                changed = True
    return frozenset(charging)

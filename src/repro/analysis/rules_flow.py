"""The DOM2xx dataflow rules: concurrency, durability and coverage.

PR 3's DOM1xx rules are single-node AST patterns; the seven rules here
check *ordering and propagation* invariants using the per-function CFG
(:mod:`repro.analysis.cfg`), the budget dataflow pass
(:mod:`repro.analysis.dataflow`) and the cross-module symbol index
(:mod:`repro.analysis.symbols`):

``async-blocking-call`` (DOM201)
    ``async def`` bodies in :mod:`repro.serve` must not call blocking
    primitives (``time.sleep``, ``os.fsync``, ``open``, sockets, …);
    offload to the executor instead.  CPU-bound query attempts are not
    blocking I/O: a single-process server runs them on the loop.
``executor-context-propagation`` (DOM202)
    Executor/thread submissions in :mod:`repro.serve` must route the
    callable through ``contextvars.copy_context().run`` so budget and
    deadline contextvars survive the thread hop.
``wal-fsync-before-ack`` (DOM203)
    In :mod:`repro.stream`, every normal return path after a raw WAL
    write (``_io_write``) must pass an fsync barrier first.
``unlocked-shared-state`` (DOM204)
    Instance attributes mutated from both the event loop and executor
    threads must only be mutated under a lock.
``fault-seam-coverage`` (DOM205)
    Every seam registered in ``robust/faults.py`` must be exercised by
    at least one fault-injecting test.
``budget-charge-coverage`` (DOM206)
    Candidate-iteration loops in :mod:`repro.queries` must charge the
    ``Budget`` on every budgeted path reaching them.
``signal-handler-safety`` (DOM207)
    Signal handlers registered in :mod:`repro.serve` may only set
    flags or hand off via ``call_soon_threadsafe`` — no blocking I/O,
    no logging, no lock acquisition.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import (
    FileContext,
    Finding,
    Rule,
    attribute_chain,
    in_packages,
)
from repro.analysis.cfg import Unit, function_cfgs
from repro.analysis.dataflow import (
    BudgetFlow,
    budget_variables,
    is_charge_call,
)

__all__ = ["FLOW_RULES"]


def _terminal(node: ast.AST) -> "str | None":
    """The rightmost identifier of a Name/Attribute/Call expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _import_aliases(tree: ast.Module) -> "dict[str, str]":
    """Local alias → canonical dotted module (mirrors rules.py; kept
    local to avoid a circular import with the rule registry)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _canonical_chain(
    node: ast.AST, aliases: "dict[str, str]"
) -> "tuple[str, ...] | None":
    chain = attribute_chain(node)
    if chain is None:
        return None
    root = aliases.get(chain[0])
    if root is None:
        return chain
    return (*root.split("."), *chain[1:])


def _own_nodes(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> "Iterator[ast.AST]":
    """Every node in *fn*'s own body, excluding nested ``def`` bodies
    (which run on their own activation — typically in the executor)."""
    stack: "list[ast.AST]" = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class AsyncBlockingCallRule(Rule):
    name = "async-blocking-call"
    code = "DOM201"
    description = (
        "async handlers in repro.serve must not call blocking primitives "
        "on the event loop"
    )
    rationale = (
        "A blocking call inside an async handler stalls the entire event "
        "loop while the process only waits: every in-flight request, the "
        "admission controller and the health endpoint all freeze for its "
        "duration. Blocking I/O (a WAL fsync) therefore runs on the "
        "executor, where it releases the GIL and overlaps the loop. "
        "CPU-bound query attempts are different by design: under the GIL "
        "a thread would only share the interpreter with the loop, so a "
        "single-process server runs them on the loop, one at a time, and "
        "--workers is what keeps them off the front's loop."
    )
    invariant = (
        "No call to time.sleep, os.fsync/rename/replace, open(), socket, "
        "subprocess or shutil primitives is syntactically reachable inside "
        "an `async def` in repro.serve, outside nested sync functions "
        "(which run in the executor). Synchronous calls that only compute, "
        "such as a query attempt, may run on the loop."
    )
    bad_example = (
        "async def handler(self):\n"
        "    time.sleep(0.1)          # stalls the whole event loop\n"
    )
    good_example = (
        "async def handler(self):\n"
        "    def work():\n"
        "        time.sleep(0.1)      # runs on an executor thread\n"
        "    ctx = contextvars.copy_context()\n"
        "    await loop.run_in_executor(self._executor, ctx.run, work)\n"
    )

    _EXACT = frozenset(
        {
            ("time", "sleep"),
            ("os", "fsync"),
            ("os", "fdatasync"),
            ("os", "rename"),
            ("os", "replace"),
            ("os", "remove"),
            ("os", "unlink"),
            ("os", "makedirs"),
            ("open",),
            ("urllib", "request", "urlopen"),
        }
    )
    _ROOTS = frozenset({"socket", "subprocess", "shutil"})

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.serve")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in _own_nodes(node):
                if not isinstance(sub, ast.Call):
                    continue
                chain = _canonical_chain(sub.func, aliases)
                if chain is None:
                    continue
                blocked = chain in self._EXACT or (
                    len(chain) > 1 and chain[0] in self._ROOTS
                )
                if blocked:
                    yield self.finding(
                        ctx,
                        sub,
                        f"blocking call {'.'.join(chain)}() inside async "
                        f"def {node.name}; offload to the executor "
                        "(run_in_executor) instead of stalling the loop",
                    )


class ExecutorContextRule(Rule):
    name = "executor-context-propagation"
    code = "DOM202"
    description = (
        "executor submissions must route through contextvars.copy_context"
    )
    rationale = (
        "Budget, deadline and fault-scope travel in contextvars. A thread "
        "hop that does not copy the context silently detaches the worker "
        "from its request's budget: charges vanish, deadlines never fire, "
        "and degraded-mode accounting under-reports."
    )
    invariant = (
        "Every run_in_executor/submit call in repro.serve passes a "
        "callable of the form `ctx.run` where `ctx` came from "
        "contextvars.copy_context()."
    )
    bad_example = (
        "await loop.run_in_executor(self._executor, work)  # loses budget\n"
    )
    good_example = (
        "ctx = contextvars.copy_context()\n"
        "await loop.run_in_executor(self._executor, ctx.run, work)\n"
    )

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.serve")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._submitted_callable(node)
            if target is None:
                continue
            chain = attribute_chain(target)
            if chain is not None and chain[-1] == "run":
                continue  # context.run(fn, ...) — propagated
            yield self.finding(
                ctx,
                node,
                "executor submission does not propagate contextvars; "
                "wrap the callable as copy_context().run so budget and "
                "deadline survive the thread hop",
            )

    @staticmethod
    def _submitted_callable(call: ast.Call) -> "ast.expr | None":
        name = _terminal(call.func)
        if name == "run_in_executor" and len(call.args) >= 2:
            return call.args[1]
        if name == "submit" and call.args:
            owner = (
                attribute_chain(call.func.value)
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if owner and any(
                "executor" in part.lower() or "pool" in part.lower()
                for part in owner
            ):
                return call.args[0]
        return None


class WalFsyncBeforeAckRule(Rule):
    name = "wal-fsync-before-ack"
    code = "DOM203"
    description = (
        "in repro.stream, return paths after a WAL append must cross fsync"
    )
    rationale = (
        "The WAL's durability contract (and the paper's certified-verdict "
        "discipline) is fsync-before-ack: once control returns to the "
        "caller, the record must already be on stable storage. An ack "
        "path that skips the fsync turns a crash into silent data loss "
        "that recovery cannot even detect."
    )
    invariant = (
        "For every function in repro.stream, every normal-edge CFG path "
        "from an _io_write() call to a return (or fall-off-the-end exit) "
        "passes an fsync/fdatasync barrier. Exception paths are exempt — "
        "a raise never acknowledges."
    )
    bad_example = (
        "_io_write(handle, framed)\n"
        "return sequence            # ack before durability\n"
    )
    good_example = (
        "_io_write(handle, framed)\n"
        "handle.flush()\n"
        "_fsync(handle.fileno())    # barrier dominates the ack\n"
        "return sequence\n"
    )

    _APPENDS = frozenset({"_io_write"})
    _BARRIERS = frozenset({"_fsync", "fsync", "fdatasync"})
    #: Seam wrappers themselves are below the invariant.
    _EXEMPT_FUNCTIONS = frozenset({"_io_write", "_io_read", "_fsync"})

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.stream")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        for fn, cfg in function_cfgs(ctx.tree):
            if fn.name in self._EXEMPT_FUNCTIONS:
                continue
            for unit in cfg.units():
                append_call = self._event_call(unit, self._APPENDS)
                if append_call is None:
                    continue
                exits = cfg.reachable_exits_avoiding(
                    unit, lambda u: self._event_call(u, self._BARRIERS)
                    is not None,
                )
                if exits:
                    yield self.finding(
                        ctx,
                        append_call,
                        f"WAL append in {fn.name}() can reach a return "
                        "without an intervening fsync (ack before "
                        "durability); fsync must dominate every ack path",
                    )

    @staticmethod
    def _event_call(unit: Unit, names: "frozenset[str]") -> "ast.Call | None":
        for node in unit.walk():
            if isinstance(node, ast.Call) and _terminal(node) in names:
                return node
        return None


class UnlockedSharedStateRule(Rule):
    name = "unlocked-shared-state"
    code = "DOM204"
    description = (
        "state mutated from both the event loop and executor threads "
        "must be lock-protected"
    )
    rationale = (
        "The serve layer runs handlers on the loop and heavy work on "
        "executor threads; the streaming engine mixes ingest threads and "
        "readers. An attribute mutated from both sides without a lock is "
        "a data race: torn updates surface as rare, unreproducible "
        "corruption under load."
    )
    invariant = (
        "Within a class, any instance attribute mutated both from async "
        "code and from thread-context code (nested sync defs inside "
        "async methods, or methods submitted to executors/threads) is "
        "only ever mutated inside `with <lock>:` blocks."
    )
    bad_example = (
        "async def handler(self):\n"
        "    self.count += 1        # loop side\n"
        "    def work():\n"
        "        self.count += 1    # thread side, no lock\n"
    )
    good_example = (
        "def work():\n"
        "    with self._lock:\n"
        "        self.count += 1\n"
    )

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.serve", "repro.stream")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> "Iterator[Finding]":
        # (attr → [(node, locked)]) per execution context.
        async_mut: "dict[str, list[tuple[ast.AST, bool]]]" = {}
        thread_mut: "dict[str, list[tuple[ast.AST, bool]]]" = {}
        thread_entries = self._thread_entry_methods(cls)
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if isinstance(method, ast.AsyncFunctionDef):
                self._collect(method.body, async_mut, locked=False)
                for nested in self._nested_sync_defs(method):
                    self._collect(nested.body, thread_mut, locked=False)
            elif method.name in thread_entries:
                self._collect(method.body, thread_mut, locked=False)
        for attr in sorted(set(async_mut) & set(thread_mut)):
            sites = async_mut[attr] + thread_mut[attr]
            unlocked = [node for node, locked in sites if not locked]
            if unlocked:
                anchor = min(
                    unlocked, key=lambda n: getattr(n, "lineno", 1)
                )
                yield self.finding(
                    ctx,
                    anchor,
                    f"self.{attr} is mutated from both the event loop and "
                    "executor threads; every mutation must hold a lock "
                    "(torn updates under load otherwise)",
                )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _nested_sync_defs(
        method: ast.AsyncFunctionDef,
    ) -> "list[ast.FunctionDef]":
        return [
            node
            for node in ast.walk(method)
            if isinstance(node, ast.FunctionDef)
        ]

    @staticmethod
    def _thread_entry_methods(cls: ast.ClassDef) -> "set[str]":
        """Sync methods handed to executors or threads as callables."""
        entries: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal(node.func)
            candidates: "list[ast.expr]" = []
            if name in ("run_in_executor", "submit"):
                candidates = list(node.args)
            elif name == "Thread":
                candidates = [
                    kw.value for kw in node.keywords if kw.arg == "target"
                ]
            for arg in candidates:
                chain = attribute_chain(arg)
                if chain and len(chain) == 2 and chain[0] == "self":
                    entries.add(chain[1])
        return entries

    def _collect(
        self,
        body: "list[ast.stmt]",
        out: "dict[str, list[tuple[ast.AST, bool]]]",
        locked: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate activation, classified elsewhere
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    self._is_lock(item.context_expr) for item in stmt.items
                )
                self._collect(stmt.body, out, holds)
                continue
            for attr, node in self._mutations(stmt):
                out.setdefault(attr, []).append((node, locked))
            # Recurse into compound statements' bodies.
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field_name, None)
                if isinstance(nested, list):
                    self._collect(
                        [s for s in nested if isinstance(s, ast.stmt)],
                        out,
                        locked,
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                self._collect(handler.body, out, locked)

    @staticmethod
    def _is_lock(expr: ast.expr) -> bool:
        chain = attribute_chain(
            expr.func if isinstance(expr, ast.Call) else expr
        )
        return chain is not None and any(
            "lock" in part.lower() for part in chain
        )

    @staticmethod
    def _mutations(stmt: ast.stmt) -> "Iterator[tuple[str, ast.AST]]":
        targets: "list[ast.expr]" = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            node: ast.expr = target
            if isinstance(node, ast.Subscript):
                node = node.value
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield node.attr, stmt


class FaultSeamCoverageRule(Rule):
    name = "fault-seam-coverage"
    code = "DOM205"
    description = (
        "every seam registered in robust/faults.py must appear in a "
        "fault-injecting test"
    )
    rationale = (
        "A fault seam that no chaos test exercises is a degradation path "
        "that has never run: the first time it executes is in production, "
        "during the fault it was meant to survive. Registration must "
        "imply coverage."
    )
    invariant = (
        "Each string in the SEAMS tuple of robust/faults.py occurs as a "
        "string literal in at least one test file that calls inject()."
    )
    bad_example = (
        'SEAMS = ("quartic", "snapshot")   # "snapshot" never injected\n'
    )
    good_example = (
        "# tests/test_chaos.py\n"
        'with faults.inject("snapshot", mode="raise"):\n'
        "    ...\n"
    )

    def applies(self, module: str) -> bool:
        return module == "repro.robust.faults"

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        symbols = ctx.symbols
        if symbols is None or symbols.tests_dir is None:
            return  # no coverage evidence available; stay silent
        for element in self._seam_elements(ctx.tree):
            if element.value not in symbols.covered_seams:
                yield self.finding(
                    ctx,
                    element,
                    f"fault seam '{element.value}' is registered but never "
                    "exercised by any fault-injecting test under "
                    f"{symbols.tests_dir.name}/",
                )

    @staticmethod
    def _seam_elements(tree: ast.Module) -> "Iterator[ast.Constant]":
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "SEAMS"
                for t in node.targets
            ):
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        yield element


class BudgetChargeCoverageRule(Rule):
    name = "budget-charge-coverage"
    code = "DOM206"
    description = (
        "candidate-iteration loops in repro.queries must charge the "
        "Budget on the path"
    )
    rationale = (
        "Graceful degradation only works if every unit of traversal work "
        "is metered: a loop that enumerates candidates without charging "
        "makes the budget a fiction — exhaustion fires late or never, and "
        "partial results stop being honest about how much work ran."
    )
    invariant = (
        "Every loop over candidate sources (entries/candidates/heaps/…) "
        "either charges the budget in its body (directly or through a "
        "helper the symbol index knows charges transitively), or runs at "
        "a program point where dataflow proves the budget is None or "
        "already charged on every path."
    )
    bad_example = (
        "def browse(index):\n"
        "    for key, sphere in payload.entries:   # unmetered traversal\n"
        "        yield key\n"
    )
    good_example = (
        "budget = current_budget()\n"
        "for key, sphere in payload.entries:\n"
        "    if budget is not None and budget.charge_candidate() is not None:\n"
        "        return partial\n"
    )

    _SOURCES = frozenset(
        {"entries", "candidates", "plausible", "children", "neighbors",
         "ranked", "blocks"}
    )
    _WORKLISTS = frozenset(
        {"heap", "stack", "queue", "frontier", "worklist"}
    )

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.queries")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        charging = (
            ctx.symbols.charging if ctx.symbols is not None else frozenset()
        )
        for fn, cfg in function_cfgs(ctx.tree):
            budget_names = budget_variables(fn)
            flow = BudgetFlow(cfg, budget_names, charging)
            for header in cfg.loop_headers():
                loop = header.node
                if not self._is_candidate_loop(loop):
                    continue
                if self._body_charges(loop, charging):
                    continue
                if budget_names and flow.ok_at(header):
                    continue
                if budget_names:
                    message = (
                        f"candidate loop in {fn.name}() runs with a "
                        "possibly-live, uncharged budget; charge per "
                        "iteration or prove the unbudgeted path"
                    )
                else:
                    message = (
                        f"candidate loop in {fn.name}() never consults the "
                        "budget; traversal work must be metered via "
                        "current_budget()/charge_*"
                    )
                yield self.finding(ctx, loop, message)

    def _is_candidate_loop(self, node: ast.stmt) -> bool:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.iter):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = _terminal(sub)
                    if name in self._SOURCES or name in self._WORKLISTS:
                        return True
        elif isinstance(node, ast.While):
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Name) and sub.id in self._WORKLISTS:
                    return True
        return False

    @staticmethod
    def _body_charges(node: ast.stmt, charging: "frozenset[str]") -> bool:
        body = getattr(node, "body", [])
        stack: "list[ast.AST]" = list(body)
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if is_charge_call(sub, charging):
                return True
            stack.extend(ast.iter_child_nodes(sub))
        return False


class SignalHandlerSafetyRule(Rule):
    name = "signal-handler-safety"
    code = "DOM207"
    description = (
        "signal handlers may only set flags or hand off via "
        "call_soon_threadsafe"
    )
    rationale = (
        "A signal handler interrupts the process at an arbitrary "
        "bytecode boundary: blocking I/O stalls the drain it was meant "
        "to start, logging re-enters non-reentrant machinery, and taking "
        "a lock the interrupted frame already holds deadlocks the "
        "process at shutdown — the one moment it must stay responsive. "
        "The only async-signal-safe moves are setting a flag and "
        "call_soon_threadsafe."
    )
    invariant = (
        "Every function registered via signal.signal() or "
        "loop.add_signal_handler() in repro.serve contains no blocking "
        "I/O (time.sleep, os.fsync/rename/..., open, print, sockets, "
        "subprocess, shutil), no logging calls, and no lock acquisition "
        "(`with <lock>` or .acquire()); flag assignments, Event.set and "
        "loop.call_soon_threadsafe are the allowed vocabulary."
    )
    bad_example = (
        "def on_term(signum, frame):\n"
        "    logging.info('draining')   # re-enters non-reentrant state\n"
        "    time.sleep(0.1)            # blocks inside the handler\n"
        "signal.signal(signal.SIGTERM, on_term)\n"
    )
    good_example = (
        "def on_term():\n"
        "    self._draining = True      # flag only\n"
        "    self._drain_event.set()\n"
        "loop.add_signal_handler(signal.SIGTERM, on_term)\n"
    )

    _BLOCKING = AsyncBlockingCallRule._EXACT | frozenset({("print",)})
    _BLOCKING_ROOTS = AsyncBlockingCallRule._ROOTS

    def applies(self, module: str) -> bool:
        return in_packages(module, "repro.serve")

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        aliases = _import_aliases(ctx.tree)
        functions: "dict[str, ast.FunctionDef | ast.AsyncFunctionDef]" = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        seen: "set[str]" = set()
        for name in sorted(self._handler_names(ctx.tree, aliases)):
            fn = functions.get(name)
            if fn is None or name in seen:
                continue  # e.g. event.set — not a locally defined body
            seen.add(name)
            yield from self._check_handler(ctx, fn, aliases)

    def _handler_names(
        self, tree: ast.Module, aliases: "dict[str, str]"
    ) -> "set[str]":
        """Names of functions registered as signal handlers."""
        names: "set[str]" = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            chain = _canonical_chain(node.func, aliases)
            if chain is None:
                continue
            registers = chain == ("signal", "signal") or (
                chain[-1] == "add_signal_handler"
            )
            if not registers:
                continue
            target = attribute_chain(node.args[1])
            if target is not None:
                names.add(target[-1])
        return names

    def _check_handler(
        self,
        ctx: FileContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        aliases: "dict[str, str]",
    ) -> "Iterator[Finding]":
        for node in _own_nodes(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if UnlockedSharedStateRule._is_lock(item.context_expr):
                        yield self.finding(
                            ctx,
                            node,
                            f"signal handler {fn.name}() acquires a lock; "
                            "the interrupted frame may already hold it — "
                            "set a flag and let the loop do the work",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = _canonical_chain(node.func, aliases)
            if chain is None:
                continue
            if chain in self._BLOCKING or (
                len(chain) > 1 and chain[0] in self._BLOCKING_ROOTS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"signal handler {fn.name}() performs blocking I/O "
                    f"({'.'.join(chain)}); handlers may only set flags "
                    "or call_soon_threadsafe",
                )
            elif chain[0] == "logging":
                yield self.finding(
                    ctx,
                    node,
                    f"signal handler {fn.name}() calls logging; the "
                    "logging machinery is not async-signal-safe — set a "
                    "flag and log from the loop",
                )
            elif chain[-1] == "acquire":
                yield self.finding(
                    ctx,
                    node,
                    f"signal handler {fn.name}() acquires a lock; the "
                    "interrupted frame may already hold it — set a flag "
                    "and let the loop do the work",
                )


#: The dataflow rules, in reporting order (appended to ALL_RULES).
FLOW_RULES: "tuple[Rule, ...]" = (
    AsyncBlockingCallRule(),
    ExecutorContextRule(),
    WalFsyncBeforeAckRule(),
    UnlockedSharedStateRule(),
    FaultSeamCoverageRule(),
    BudgetChargeCoverageRule(),
    SignalHandlerSafetyRule(),
)

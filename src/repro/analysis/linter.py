"""Layer 2: custom ``ast``-based lint for project concurrency/purity invariants.

The serving layer introduced invariants that plain review keeps missing:
shared mutable state must be touched under its lock, time must flow
through the injectable ``clock``, errors must not be silently swallowed,
and request handlers must not block on file I/O.  These checkers encode
them mechanically.

Diagnostic codes
----------------
======  ========================  ==========================================
L001    unlocked-shared-mutation  ``self.x`` mutated outside ``with self._lock``
L002    direct-clock-call         ``time.time()`` etc. in a clock-injected module
L003    swallowed-exception       broad ``except`` that neither uses nor re-raises
L004    blocking-io-in-handler    file I/O inside a request-handler method
======  ========================  ==========================================

Conventions honoured by L001 (so correct existing code stays clean):

* ``__init__``/``__post_init__`` run before the object is shared and are
  exempt;
* a method whose name ends in ``_locked`` documents that its *caller*
  holds the lock and is exempt;
* only mutations of direct ``self`` attributes (``self.x = ...``,
  ``self.x += ...``, ``self.x[k] = ...``, ``del self.x[k]``) are
  considered — the checker never guesses about aliased objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Location,
    Severity,
)

#: ``module.attr`` call targets that bypass an injectable clock.
CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Call names that perform blocking file I/O.
BLOCKING_IO_NAMES = {"open"}
BLOCKING_IO_ATTRS = {
    "read_text", "write_text", "read_bytes", "write_bytes", "unlink",
}
BLOCKING_IO_QUALIFIED = {
    ("json", "dump"), ("json", "load"),
    ("os", "replace"), ("os", "rename"), ("os", "remove"),
}


@dataclass(frozen=True)
class LintConfig:
    """Tunable scope of the lint pass."""

    #: Methods treated as request handlers wherever L004 applies, in
    #: addition to ``do_*`` methods of ``*HTTPRequestHandler`` classes.
    handler_methods: tuple[str, ...] = (
        "_process_request", "handle", "chat", "feedback", "health",
        "_turn", "forward", "broadcast",
    )
    #: Path substrings whose modules are in L004's blast radius (the
    #: request path); ``*HTTPRequestHandler`` subclasses are always in.
    #: ``persistence`` is in scope because the router's forward path
    #: (``persistence/router.py``) serves requests too.
    handler_modules: tuple[str, ...] = ("serving", "persistence")


@dataclass
class ModuleUnderLint:
    """One parsed module plus the context the checkers need."""

    path: str
    source: str
    tree: ast.Module
    config: LintConfig = field(default_factory=LintConfig)

    @classmethod
    def parse(
        cls, source: str, path: str, config: LintConfig | None = None
    ) -> "ModuleUnderLint":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source),
            config=config or LintConfig(),
        )


def _is_self_attribute(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_attribute_name(target: ast.expr) -> str | None:
    """``self.x`` or ``self.x[...]`` → ``"x"``; anything else → None."""
    if _is_self_attribute(target):
        return target.attr  # type: ignore[union-attr]
    if isinstance(target, ast.Subscript) and _is_self_attribute(target.value):
        return target.value.attr  # type: ignore[union-attr]
    return None


def _dotted_call_name(func: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c(...)`` → ("a", "b", "c"); non-dotted-name calls → None."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# L001 — unlocked shared mutation
# ---------------------------------------------------------------------------


def _lock_attributes(class_node: ast.ClassDef) -> set[str]:
    """Attributes assigned a ``threading.Lock()``/``RLock()`` anywhere in
    the class (typically ``__init__``)."""
    locks: set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        name = _dotted_call_name(value.func) if isinstance(value, ast.Call) else None
        if name is None or name[-1] not in ("Lock", "RLock"):
            continue
        if name[0] not in ("threading", "Lock", "RLock"):
            continue
        for target in node.targets:
            attr = _self_attribute_name(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _with_holds_self_lock(node: ast.With, lock_attrs: set[str]) -> bool:
    for item in node.items:
        expr = item.context_expr
        if _is_self_attribute(expr) and expr.attr in lock_attrs:  # type: ignore[union-attr]
            return True
    return False


def _check_unlocked_mutation(
    module: ModuleUnderLint, out: DiagnosticCollector
) -> None:
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        lock_attrs = _lock_attributes(class_node)
        if not lock_attrs:
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__"):
                continue
            if method.name.endswith("_locked"):
                continue  # convention: the caller holds the lock
            symbol = f"{class_node.name}.{method.name}"
            _walk_method(method, lock_attrs, module, symbol, out)


def _walk_method(
    node: ast.AST,
    lock_attrs: set[str],
    module: ModuleUnderLint,
    symbol: str,
    out: DiagnosticCollector,
    under_lock: bool = False,
) -> None:
    for child in ast.iter_child_nodes(node):
        child_locked = under_lock
        if isinstance(child, ast.With) and _with_holds_self_lock(
            child, lock_attrs
        ):
            child_locked = True
        if not child_locked:
            targets: list[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif isinstance(child, ast.Delete):
                targets = child.targets
            for target in targets:
                attr = _self_attribute_name(target)
                if attr is None or attr in lock_attrs:
                    continue
                out.error(
                    "L001",
                    f"self.{attr} is mutated outside a 'with self."
                    f"{sorted(lock_attrs)[0]}:' block in a class that "
                    "guards its state with a lock",
                    Location(module.path, child.lineno, symbol),
                    rule="unlocked-shared-mutation",
                )
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested defs run later, in an unknown lock context
        _walk_method(child, lock_attrs, module, symbol, out, child_locked)


# ---------------------------------------------------------------------------
# L002 — direct clock calls in clock-injected modules
# ---------------------------------------------------------------------------


def _module_takes_clock(module: ModuleUnderLint) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = (
                args.posonlyargs + args.args + args.kwonlyargs
            )
            if any(arg.arg == "clock" for arg in every):
                return True
    return False


def _default_expr_nodes(module: ModuleUnderLint) -> set[int]:
    """ids of AST nodes inside default-argument expressions (a default of
    ``clock=time.monotonic`` is the injection point itself, not a call)."""
    out: set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if default is None:
                    continue
                for sub in ast.walk(default):
                    out.add(id(sub))
    return out


def _enclosing_symbols(module: ModuleUnderLint) -> dict[int, str]:
    """Map node id → dotted enclosing definition name."""
    symbols: dict[int, str] = {}

    def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            child_stack = stack
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_stack = stack + (child.name,)
            symbols[id(child)] = ".".join(child_stack) or "<module>"
            visit(child, child_stack)

    visit(module.tree, ())
    return symbols


def _check_direct_clock(
    module: ModuleUnderLint, out: DiagnosticCollector
) -> None:
    if not _module_takes_clock(module):
        return
    defaults = _default_expr_nodes(module)
    symbols = _enclosing_symbols(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or id(node) in defaults:
            continue
        name = _dotted_call_name(node.func)
        if name is None or len(name) < 2:
            continue
        if (name[-2], name[-1]) in CLOCK_CALLS:
            out.error(
                "L002",
                f"direct {'.'.join(name)}() call in a module with an "
                "injectable clock; thread the clock through instead",
                Location(module.path, node.lineno, symbols.get(id(node))),
                rule="direct-clock-call",
            )


# ---------------------------------------------------------------------------
# L003 — swallowed exceptions
# ---------------------------------------------------------------------------


def _is_broad_exception_type(type_node: ast.expr | None) -> bool:
    if type_node is None:
        return True  # bare except:
    if isinstance(type_node, ast.Name):
        return type_node.id in ("Exception", "BaseException")
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad_exception_type(e) for e in type_node.elts)
    return False


def _check_swallowed_exception(
    module: ModuleUnderLint, out: DiagnosticCollector
) -> None:
    symbols = _enclosing_symbols(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_exception_type(node.type):
            continue
        uses_exception = node.name is not None and any(
            isinstance(sub, ast.Name) and sub.id == node.name
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        reraises = any(
            isinstance(sub, ast.Raise)
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if uses_exception or reraises:
            continue
        caught = "bare except" if node.type is None else "except Exception"
        out.error(
            "L003",
            f"{caught} neither inspects nor re-raises the error — narrow "
            "the exception type or handle it explicitly",
            Location(module.path, node.lineno, symbols.get(id(node))),
            rule="swallowed-exception",
        )


# ---------------------------------------------------------------------------
# L004 — blocking file I/O in request handlers
# ---------------------------------------------------------------------------


def _is_handler_class(class_node: ast.ClassDef) -> bool:
    for base in class_node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name.endswith("HTTPRequestHandler") or name.endswith("_Handler"):
            return True
    return False


def _handler_methods(module: ModuleUnderLint) -> list[tuple[str, ast.FunctionDef]]:
    """(symbol, method) pairs that run on the request path."""
    in_scope_module = any(
        fragment in module.path for fragment in module.config.handler_modules
    )
    handlers: list[tuple[str, ast.FunctionDef]] = []
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        handler_class = _is_handler_class(class_node)
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            named_handler = method.name.startswith("do_") or (
                in_scope_module
                and method.name in module.config.handler_methods
            )
            if handler_class and method.name.startswith("do_"):
                named_handler = True
            if (handler_class or in_scope_module) and named_handler:
                handlers.append((f"{class_node.name}.{method.name}", method))
    return handlers


def _is_blocking_io_call(node: ast.Call) -> str | None:
    name = _dotted_call_name(node.func)
    if name is None:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in BLOCKING_IO_ATTRS:
                return node.func.attr
        return None
    if len(name) == 1 and name[0] in BLOCKING_IO_NAMES:
        return name[0]
    if name[-1] in BLOCKING_IO_ATTRS:
        return ".".join(name)
    if len(name) >= 2 and (name[-2], name[-1]) in BLOCKING_IO_QUALIFIED:
        return ".".join(name)
    return None


def _check_blocking_io(module: ModuleUnderLint, out: DiagnosticCollector) -> None:
    for symbol, method in _handler_methods(module):
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            what = _is_blocking_io_call(node)
            if what is not None:
                out.error(
                    "L004",
                    f"blocking file I/O ({what}) inside request handler "
                    f"{symbol}; move it off the request path (e.g. to "
                    "shutdown/flush)",
                    Location(module.path, node.lineno, symbol),
                    rule="blocking-io-in-handler",
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

CHECKERS = (
    _check_unlocked_mutation,
    _check_direct_clock,
    _check_swallowed_exception,
    _check_blocking_io,
)


def lint_source(
    source: str, path: str = "<string>", config: LintConfig | None = None
) -> list[Diagnostic]:
    """Lint one module given as source text (the unit-test entry point)."""
    out = DiagnosticCollector()
    try:
        module = ModuleUnderLint.parse(source, path, config)
    except SyntaxError as exc:
        out.emit(
            "L000",
            Severity.ERROR,
            f"cannot parse module: {exc.msg}",
            Location(path, exc.lineno),
            rule="syntax-error",
        )
        return out.sorted()
    for checker in CHECKERS:
        checker(module, out)
    return out.sorted()


def lint_paths(
    paths: list[str | Path], config: LintConfig | None = None
) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diagnostics: list[Diagnostic] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        diagnostics.extend(lint_source(source, str(file), config))
    return diagnostics

"""The whole-program model every codebase rule runs over.

``repro lint``, ``race`` and ``purity`` all ask their questions of one
graph built here from the AST alone — the same move MedTQ makes when it
derives a predicate graph from local declarations:

* every class's **lock attributes** (``self._lock = threading.Lock()``
  declarations, dataclass ``field(default_factory=threading.Lock)``
  fields, inherited locks), giving each lock a stable project-wide
  identity ``ClassName.attr``;
* a light **type environment** — parameter/return annotations,
  ``self.x = ClassName(...)`` constructor assignments, ``list``/``dict``
  element types — so ``entry.lock`` resolves to ``SessionEntry.lock``
  and ``self.durable.commit_turn(...)`` resolves to a real callee;
* per-function **effect records**: which locks are acquired (and which
  were already held — the raw material of the lock-order graph), every
  resolvable ``obj.field`` read/write with the lock set held at that
  site, every call site, every blocking syscall, and the ordered
  file-I/O events (write / flush / fsync / rename / journal append /
  return) the durability rules D001–D003 check;
* per-module facts: every ``except`` clause with its enclosing symbol
  (nested functions included), and the files that failed to parse.

Conventions honoured (so correct code models cleanly):

* ``__init__``/``__post_init__`` run before the object is shared;
* a method named ``*_locked`` documents that its caller holds the
  class's lock — with exactly one lock that lock is assumed held, with
  several the sites are marked :data:`CALLER_HELD` (satisfies any
  guard, creates no order edges);
* a ``# locks: ClassName.attr[, ...]`` comment on a ``def`` line
  declares caller-held locks explicitly, for cross-object or multi-lock
  cases the naming convention cannot express.

The model never guesses: an unresolvable receiver or callee is simply
omitted, so every edge and site the rules reason about is backed by a
declaration the code actually makes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Marker lock id meaning "whatever lock the caller holds" — satisfies
#: any guard requirement but never participates in ordering rules.
CALLER_HELD = "<caller>"

#: ``def`` line annotation declaring caller-held locks.
_LOCKS_PRAGMA = re.compile(r"#\s*locks:\s*([A-Za-z0-9_.\[\]<>, ]+)")

#: Calls that block on file I/O (L004 keeps them off request handlers).
FILE_IO_BARE = {"open"}
FILE_IO_ATTRS = {
    "read_text", "write_text", "read_bytes", "write_bytes", "mkdir", "unlink",
}
FILE_IO_QUALIFIED = {
    ("os", "fsync"), ("os", "replace"), ("os", "rename"),
    ("os", "remove"), ("os", "unlink"),
    ("json", "dump"), ("json", "load"),
}

#: Every dotted call that blocks the calling thread: file I/O plus
#: sleeps, child processes and sockets (R003's raw material).
BLOCKING_QUALIFIED = FILE_IO_QUALIFIED | {
    ("time", "sleep"),
    ("subprocess", "Popen"), ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("socket", "create_connection"),
    ("request", "urlopen"),
}

#: Attribute calls that write bytes out (D001's "write before rename").
WRITE_ATTRS = {"write", "writelines", "write_text", "write_bytes"}

#: Method calls that mutate their receiver in place — a call through a
#: field (``self.x.setdefault(...)``) is a *write* to that field's state.
MUTATING_ATTRS = {
    "setdefault", "pop", "popitem", "append", "extend", "add", "insert",
    "remove", "discard", "clear", "update", "move_to_end",
}

#: Calls whose results vary across runs or processes — the raw material
#: of the replay-determinism rules (P001/P004).  ``clock``/``random``/
#: ``uuid``/``entropy`` values diverge between the original turn and its
#: journal replay; ``env``/``fs`` values depend on the host environment.
NONDET_QUALIFIED = {
    ("time", "time"): "clock", ("time", "time_ns"): "clock",
    ("time", "monotonic"): "clock", ("time", "monotonic_ns"): "clock",
    ("time", "perf_counter"): "clock", ("time", "perf_counter_ns"): "clock",
    ("datetime", "now"): "clock", ("datetime", "utcnow"): "clock",
    ("datetime", "today"): "clock", ("date", "today"): "clock",
    ("random", "random"): "random", ("random", "randint"): "random",
    ("random", "randrange"): "random", ("random", "choice"): "random",
    ("random", "choices"): "random", ("random", "shuffle"): "random",
    ("random", "sample"): "random", ("random", "uniform"): "random",
    ("random", "getrandbits"): "random", ("random", "seed"): "random",
    ("uuid", "uuid1"): "uuid", ("uuid", "uuid4"): "uuid",
    ("os", "urandom"): "entropy", ("secrets", "token_bytes"): "entropy",
    ("secrets", "token_hex"): "entropy",
    ("secrets", "token_urlsafe"): "entropy",
    ("os", "getenv"): "env",
    ("os", "listdir"): "fs", ("os", "scandir"): "fs", ("os", "walk"): "fs",
    ("glob", "glob"): "fs", ("glob", "iglob"): "fs",
}

#: Receiver-typed directory enumeration (``Path.iterdir`` — no module
#: prefix to resolve, so these go by attribute name alone).
NONDET_ATTRS = {"iterdir": "fs"}

#: Wrapping a filesystem enumeration (or a set) in one of these fixes
#: its order, so the wrapped call is no longer an order hazard.
ORDER_SANITIZERS = {"sorted"}

#: Calls that consume an unordered collection without exposing its
#: iteration order (aggregates, membership, emptiness).
ORDER_NEUTRAL_CALLS = {
    "sorted", "len", "min", "max", "sum", "any", "all", "bool",
}


# ---------------------------------------------------------------------------
# Type references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassType:
    """A value known to be an instance of a project class."""

    name: str


@dataclass(frozen=True)
class ListType:
    elem: object  # TypeRef | None


@dataclass(frozen=True)
class DictType:
    value: object  # TypeRef | None


@dataclass(frozen=True)
class TupleType:
    elems: tuple


@dataclass(frozen=True)
class LockValue:
    """A raw ``threading.Lock`` value; ``family`` names where it lives
    (``"Store._resuming[]"`` for locks handed out of a dict)."""

    family: str | None = None


@dataclass(frozen=True)
class TempFile:
    """A path produced by a temp-file idiom; ``same_dir`` records
    whether it provably lives in the rename target's directory."""

    same_dir: bool


# ---------------------------------------------------------------------------
# Effect records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Acquisition:
    lock: str
    line: int
    held: frozenset


@dataclass(frozen=True)
class FieldAccess:
    cls: str
    attr: str
    write: bool
    line: int
    held: frozenset
    #: An assignment or ``del`` statement targets the field (a write
    #: through a mutating method call such as ``.append`` is not one).
    assigned: bool = False


@dataclass
class CallSite:
    callee: "FunctionModel | None"
    line: int
    held: frozenset
    #: Exception type names caught by enclosing non-re-raising ``try``
    #: handlers at this call site (``"<bare>"`` for a bare ``except:``).
    caught: tuple = ()


@dataclass(frozen=True)
class NondetCall:
    """One call whose result varies across runs/processes."""

    kind: str  # clock | random | uuid | entropy | env | fs
    what: str  # "time.perf_counter", "os.environ", ...
    line: int


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise`` with its resolved exception type."""

    type_name: str  # bare class name, or "<unknown>" for dynamic raises
    line: int
    #: Type names caught by enclosing non-re-raising handlers at the
    #: raise site (the raise only escapes past these).
    caught: tuple = ()


@dataclass(frozen=True)
class GlobalWrite:
    """A mutation of module-level state from inside a function."""

    target: str  # "pkg.module:NAME"
    line: int


@dataclass(frozen=True)
class OrderEscape:
    """An unordered collection whose iteration order leaves the function
    (into a returned/yielded value or an object field) — byte-unstable
    across processes under str-hash randomization."""

    source: str  # description of the unordered expression
    line: int
    via: str  # "return" | "yield" | "state"


@dataclass(frozen=True)
class ExceptClause:
    """One ``except`` handler clause."""

    types: tuple  # caught type names; () means a bare ``except:``
    line: int
    reraises: bool  # the handler body re-raises the caught exception
    uses_name: bool  # the handler body reads the ``as`` name it binds


@dataclass
class TryBlock:
    """One ``try`` statement: its handlers plus what the protected body
    can actually raise (X002's raw material)."""

    line: int
    clauses: list = field(default_factory=list)  # ExceptClause
    callees: list = field(default_factory=list)  # resolved FunctionModel
    raise_types: list = field(default_factory=list)  # direct raises in body
    #: True when every call in the body resolved to a project function
    #: or a bare-name builtin — only then can a handler be proven dead.
    complete: bool = True


@dataclass(frozen=True)
class BlockingCall:
    what: str
    line: int
    held: frozenset
    file_io: bool  # blocks on the filesystem, not a sleep/process/socket


@dataclass(frozen=True)
class IOEvent:
    """One ordered durability-relevant event (D001–D003 raw material)."""

    kind: str  # write | flush | fsync | replace | commit_append
    line: int
    origin: object = None  # for replace: the source path's TempFile, if known


@dataclass
class Registration:
    """A function handed to ``signal.signal`` or ``atexit.register``."""

    kind: str  # "signal" | "atexit"
    target: "FunctionModel | None"
    line: int


@dataclass
class FunctionModel:
    """One function/method plus everything the rules need to know."""

    path: str
    module: str
    name: str
    qualname: str  # "Class.method" or bare function name
    lineno: int
    node: ast.AST
    class_model: "ClassModel | None" = None
    declared_locks: frozenset = frozenset()
    return_type: object = None
    acquisitions: list = field(default_factory=list)
    accesses: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    blocking: list = field(default_factory=list)
    io_events: list = field(default_factory=list)
    returns: list = field(default_factory=list)
    registrations: list = field(default_factory=list)
    nondet_calls: list = field(default_factory=list)
    raises: list = field(default_factory=list)
    global_writes: list = field(default_factory=list)
    order_escapes: list = field(default_factory=list)
    try_blocks: list = field(default_factory=list)
    #: Calls that did not resolve to a project function and were not
    #: bare-name builtins — while any are reachable, the raise-set of
    #: this function cannot be proven complete (gates X002).
    unresolved_calls: int = 0

    @property
    def is_init(self) -> bool:
        return self.name in ("__init__", "__post_init__")

    @property
    def location(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class ClassModel:
    path: str
    module: str
    name: str
    lineno: int
    node: ast.ClassDef
    base_names: list = field(default_factory=list)
    bases: list = field(default_factory=list)  # resolved ClassModel refs
    own_locks: set = field(default_factory=set)
    attr_types: dict = field(default_factory=dict)  # attr -> TypeRef | None
    methods: dict = field(default_factory=dict)  # name -> FunctionModel

    def mro(self) -> list:
        """This class followed by its resolvable project bases."""
        out, queue, seen = [], [self], set()
        while queue:
            cls = queue.pop(0)
            if id(cls) in seen:
                continue
            seen.add(id(cls))
            out.append(cls)
            queue.extend(cls.bases)
        return out

    def lock_attrs(self) -> dict:
        """lock attribute name -> stable lock id ``DeclaringClass.attr``."""
        locks: dict[str, str] = {}
        for cls in reversed(self.mro()):
            for attr in cls.own_locks:
                locks[attr] = f"{cls.name}.{attr}"
        return locks

    def find_method(self, name: str) -> FunctionModel | None:
        for cls in self.mro():
            if name in cls.methods:
                return cls.methods[name]
        return None

    def field_names(self) -> set:
        out: set[str] = set()
        for cls in self.mro():
            out.update(cls.attr_types)
        return out

    def attr_type(self, attr: str):
        for cls in self.mro():
            if attr in cls.attr_types:
                return cls.attr_types[attr]
        return None


@dataclass
class ModuleModel:
    path: str
    dotted: str
    tree: ast.Module
    source: str
    classes: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    raw_imports: list = field(default_factory=list)  # (local, dotted, symbol)
    symbols: dict = field(default_factory=dict)  # local name -> resolution
    global_names: set = field(default_factory=set)  # module-level variables
    #: (enclosing dotted symbol or "<module>", ExceptClause) for every
    #: handler in the module, nested functions included.
    except_clauses: list = field(default_factory=list)


@dataclass
class ProjectModel:
    """The whole-program model phase 2 runs its rules over."""

    modules: dict = field(default_factory=dict)  # dotted -> ModuleModel
    classes: dict = field(default_factory=dict)  # bare name -> ClassModel
    ambiguous_classes: set = field(default_factory=set)
    #: Files that could not be parsed, as (path, SyntaxError) — absent
    #: from ``modules``, so every rule is blind to them.
    parse_errors: list = field(default_factory=list)

    def all_functions(self):
        for module in self.modules.values():
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    def resolve_class(self, name: str) -> ClassModel | None:
        if name in self.ambiguous_classes:
            return None
        return self.classes.get(name)

    def constructing(self) -> set[int]:
        """ids of every ``__init__``/``__post_init__`` and of every
        function whose callers are all such (or again init-only): they
        run while the object is still being built, before it is shared,
        so their ``self`` writes construct rather than mutate."""
        functions = list(self.all_functions())
        callers: dict[int, set[int]] = {}
        for function in functions:
            for call in function.calls:
                if call.callee is not None:
                    callers.setdefault(id(call.callee), set()).add(
                        id(function)
                    )
        out = {id(function) for function in functions if function.is_init}
        changed = True
        while changed:
            changed = False
            for function in functions:
                key = id(function)
                caller_ids = callers.get(key)
                if key not in out and caller_ids and caller_ids <= out:
                    out.add(key)
                    changed = True
        return out


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _handler_type_names(node: ast.expr | None) -> tuple:
    """Exception type names caught by an ``except`` clause expression.

    ``except (A, B)`` yields both names; a bare ``except`` yields ``()``;
    unresolvable expressions are dropped (treated as catching nothing we
    can reason about)."""
    if node is None:
        return ()
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        dotted = _dotted_name(expr)
        if dotted is not None:
            names.append(dotted[-1])
    return tuple(names)


def _except_clause(handler: ast.ExceptHandler) -> ExceptClause:
    body = [sub for stmt in handler.body for sub in ast.walk(stmt)]
    return ExceptClause(
        types=_handler_type_names(handler.type),
        line=handler.lineno,
        reraises=any(
            isinstance(sub, ast.Raise) and sub.exc is None for sub in body
        ),
        uses_name=handler.name is not None and any(
            isinstance(sub, ast.Name) and sub.id == handler.name
            for sub in body
        ),
    )


def _is_lock_constructor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _dotted_name(node.func)
    if name and name[-1] in ("Lock", "RLock"):
        return name[0] in ("threading", "Lock", "RLock")
    # dataclasses.field(default_factory=threading.Lock)
    if name and name[-1] == "field":
        for kw in node.keywords:
            if kw.arg == "default_factory":
                factory = _dotted_name(kw.value)
                if factory and factory[-1] in ("Lock", "RLock"):
                    return True
    return False


def _module_name(root: Path, file: Path) -> str:
    try:
        rel = file.relative_to(root.parent)
    except ValueError:
        return file.stem
    return ".".join(rel.with_suffix("").parts)


# ---------------------------------------------------------------------------
# Pass A: parse files, collect raw classes/functions/imports
# ---------------------------------------------------------------------------


def _add_module(
    project: ProjectModel, path: Path | str, dotted: str,
    source: str | None = None,
) -> None:
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    try:
        project.modules[dotted] = _collect_module(path, dotted, source)
    except SyntaxError as exc:
        project.parse_errors.append((str(path), exc))


def _collect_module(path: Path | str, dotted: str, source: str) -> ModuleModel:
    tree = ast.parse(source)
    module = ModuleModel(path=str(path), dotted=dotted, tree=tree, source=source)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = ClassModel(
                path=module.path, module=dotted, name=node.name,
                lineno=node.lineno, node=node,
            )
            cls.base_names = [
                ".".join(name) for name in
                (_dotted_name(base) for base in node.bases) if name
            ]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionModel(
                        path=module.path, module=dotted, name=item.name,
                        qualname=f"{node.name}.{item.name}",
                        lineno=item.lineno, node=item, class_model=cls,
                    )
            module.classes[node.name] = cls
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = FunctionModel(
                path=module.path, module=dotted, name=node.name,
                qualname=node.name, lineno=node.lineno, node=node,
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module.global_names.add(target.id)
    # Imports anywhere in the module (function-local imports are the
    # house style for breaking circular dependencies) resolve names for
    # the whole module — a small over-approximation, never ambiguous.
    pending: list[tuple[ast.AST, tuple[str, ...]]] = [(tree, ())]
    while pending:
        node, scope = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.raw_imports.append((local, alias.name, None))
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                module.raw_imports.append((local, node.module, alias.name))
        elif isinstance(node, ast.ExceptHandler):
            module.except_clauses.append(
                (".".join(scope) or "<module>", _except_clause(node))
            )
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            scope += (node.name,)
        pending.extend((child, scope) for child in ast.iter_child_nodes(node))
    return module


# ---------------------------------------------------------------------------
# Pass B: resolve imports, bases, attribute/return types
# ---------------------------------------------------------------------------


class _Resolver:
    """Name → model resolution in one module's import context."""

    def __init__(self, project: ProjectModel, module: ModuleModel) -> None:
        self.project = project
        self.module = module

    def lookup(self, name: str):
        """A local name → ClassModel | FunctionModel | ModuleModel | None."""
        if name in self.module.classes:
            return self.module.classes[name]
        if name in self.module.functions:
            return self.module.functions[name]
        resolved = self.module.symbols.get(name)
        return resolved

    def lookup_dotted(self, parts: tuple[str, ...]):
        """``("recovery", "recover_session")`` → the imported function."""
        base = self.lookup(parts[0])
        for part in parts[1:]:
            if isinstance(base, ModuleModel):
                base = base.classes.get(part) or base.functions.get(part)
            else:
                return None
        return base

    def resolve_annotation(self, node: ast.expr | None):
        """An annotation AST → TypeRef (best effort, never guesses)."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self.resolve_annotation(node.left)
            return left if left is not None else self.resolve_annotation(node.right)
        name = _dotted_name(node) if not isinstance(node, ast.Subscript) else None
        if name:
            if name[-1] in ("Lock", "RLock") and name[0] in ("threading",):
                return LockValue()
            target = self.lookup(name[0]) if len(name) == 1 else (
                self.lookup_dotted(name)
            )
            if isinstance(target, ClassModel):
                return ClassType(target.name)
            return None
        if isinstance(node, ast.Subscript):
            container = _dotted_name(node.value)
            if container is None:
                return None
            kind = container[-1]
            items = (
                list(node.slice.elts)
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            if kind in ("list", "List", "Iterable", "Sequence"):
                return ListType(self.resolve_annotation(items[0]))
            if kind in ("dict", "Dict", "OrderedDict", "defaultdict"):
                return DictType(
                    self.resolve_annotation(items[-1]) if len(items) > 1 else None
                )
            if kind in ("tuple", "Tuple"):
                return TupleType(
                    tuple(self.resolve_annotation(item) for item in items)
                )
            if kind == "Optional":
                return self.resolve_annotation(items[0])
        return None


def _resolve_symbols(project: ProjectModel) -> None:
    for module in project.modules.values():
        for local, dotted, symbol in module.raw_imports:
            if symbol is None:
                target = project.modules.get(dotted)
            else:
                # `from pkg import name`: a submodule, or a symbol of pkg.
                target = project.modules.get(f"{dotted}.{symbol}")
                if target is None:
                    source = project.modules.get(dotted)
                    if source is not None:
                        target = source.classes.get(symbol) or (
                            source.functions.get(symbol)
                        )
            if target is not None:
                module.symbols[local] = target


def _shallow_value_type(resolver: _Resolver, node: ast.expr):
    """Type of an ``__init__`` right-hand side, without a local env."""
    if _is_lock_constructor(node):
        return LockValue()
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name:
            target = resolver.lookup_dotted(name) if len(name) > 1 else (
                resolver.lookup(name[0])
            )
            if isinstance(target, ClassModel):
                return ClassType(target.name)
    if isinstance(node, (ast.ListComp, ast.List)):
        elements = (
            [node.elt] if isinstance(node, ast.ListComp) else node.elts
        )
        if elements:
            elem = _shallow_value_type(resolver, elements[0])
            if elem is not None:
                return ListType(elem)
    return None


def _resolve_class_details(project: ProjectModel) -> None:
    for module in project.modules.values():
        resolver = _Resolver(project, module)
        for cls in module.classes.values():
            for base_name in cls.base_names:
                base = resolver.lookup(base_name.split(".")[0])
                if "." in base_name:
                    base = resolver.lookup_dotted(tuple(base_name.split(".")))
                if isinstance(base, ClassModel):
                    cls.bases.append(base)
            # Class-level annotated fields (dataclasses).
            for item in cls.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    ref = resolver.resolve_annotation(item.annotation)
                    if item.value is not None and _is_lock_constructor(item.value):
                        ref = LockValue()
                    cls.attr_types[item.target.id] = ref
                    if isinstance(ref, LockValue):
                        cls.own_locks.add(item.target.id)
            # Attributes assigned anywhere in the class body.
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    targets: list[ast.expr] = []
                    value = None
                    if isinstance(node, ast.Assign):
                        targets, value = node.targets, node.value
                    elif isinstance(node, ast.AnnAssign):
                        targets, value = [node.target], node.value
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        attr = target.attr
                        ref = None
                        if isinstance(node, ast.AnnAssign):
                            ref = resolver.resolve_annotation(node.annotation)
                        if ref is None and value is not None:
                            ref = _shallow_value_type(resolver, value)
                        if _is_lock_constructor(value) if value else False:
                            cls.own_locks.add(attr)
                            ref = LockValue()
                        if attr not in cls.attr_types or (
                            cls.attr_types[attr] is None and ref is not None
                        ):
                            cls.attr_types[attr] = ref
            # Give dict-of-lock attributes a stable family name.
            for attr, ref in cls.attr_types.items():
                if isinstance(ref, DictType) and isinstance(
                    ref.value, LockValue
                ):
                    cls.attr_types[attr] = DictType(
                        LockValue(f"{cls.name}.{attr}[]")
                    )


def _resolve_signatures(project: ProjectModel) -> None:
    for module in project.modules.values():
        resolver = _Resolver(project, module)
        for function in _module_function_models(module):
            args = function.node.args
            function.return_type = resolver.resolve_annotation(
                function.node.returns
            )
            function.param_types = {}
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg == "self":
                    continue
                function.param_types[arg.arg] = resolver.resolve_annotation(
                    arg.annotation
                )
            function.declared_locks = _declared_locks(module, function)


def _module_function_models(module: ModuleModel):
    yield from module.functions.values()
    for cls in module.classes.values():
        yield from cls.methods.values()


def _declared_locks(module: ModuleModel, function: FunctionModel) -> frozenset:
    """Caller-held locks from the ``*_locked`` convention and pragma."""
    held: set[str] = set()
    lines = module.source.splitlines()
    body_start = function.node.body[0].lineno if function.node.body else (
        function.lineno + 1
    )
    for lineno in range(function.lineno, body_start):
        if 0 < lineno <= len(lines):
            match = _LOCKS_PRAGMA.search(lines[lineno - 1])
            if match:
                held.update(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()
                )
    if function.name.endswith("_locked") and function.class_model is not None:
        locks = sorted(set(function.class_model.lock_attrs().values()))
        if len(locks) == 1:
            held.add(locks[0])
        elif locks:
            held.add(CALLER_HELD)
    return frozenset(held)


# ---------------------------------------------------------------------------
# Pass C: walk every function body recording effects
# ---------------------------------------------------------------------------


class _BodyWalker:
    """Records one function's effects under a static held-lock set."""

    def __init__(
        self,
        project: ProjectModel,
        module: ModuleModel,
        function: FunctionModel,
    ) -> None:
        self.project = project
        self.module = module
        self.function = function
        self.resolver = _Resolver(project, module)
        self.env: dict[str, object] = dict(
            getattr(function, "param_types", {}) or {}
        )
        # Exception-flow context: one entry per enclosing ``try`` whose
        # handlers would stop a propagating exception here.
        self._caught_stack: list[tuple] = []
        self._try_stack: list[TryBlock] = []
        # Order-taint context: locals currently holding unordered
        # collections, and call nodes wrapped in an order sanitizer.
        self._set_locals: set[str] = set()
        self._sanitized: set[int] = set()
        # Names the function declares ``global`` (writes hit the module),
        # and every name bound locally (everything else may be a module
        # global when the module defines it at top level).
        self._global_decls: set[str] = set()
        self._local_names: set[str] = set(self.env)
        for sub in ast.walk(function.node):
            if isinstance(sub, ast.Global):
                self._global_decls.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self._local_names.add(sub.id)
        self._local_names -= self._global_decls

    # -- typing --------------------------------------------------------------

    def _type_of(self, node: ast.expr):
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            target = self.resolver.lookup(node.id)
            if isinstance(target, ClassModel):
                return ClassType(target.name)
            return None
        if isinstance(node, ast.Attribute):
            owner = self._receiver_class(node.value)
            if owner is not None:
                return owner.attr_type(node.attr)
            return None
        if isinstance(node, ast.Subscript):
            container = self._type_of(node.value)
            if isinstance(container, ListType):
                return container.elem
            if isinstance(container, DictType):
                return container.value
            return None
        if isinstance(node, ast.Call):
            callee, result = self._resolve_call(node)
            return result
        return None

    def _receiver_class(self, node: ast.expr) -> ClassModel | None:
        if (
            isinstance(node, ast.Name)
            and node.id == "self"
            and self.function.class_model is not None
        ):
            return self.function.class_model
        ref = self._type_of(node)
        if isinstance(ref, ClassType):
            return self.project.resolve_class(ref.name)
        return None

    def _resolve_call(self, node: ast.Call):
        """→ (callee FunctionModel | None, result TypeRef | None)."""
        func = node.func
        if isinstance(func, ast.Name):
            target = self.resolver.lookup(func.id)
            if isinstance(target, ClassModel):
                init = target.find_method("__init__")
                return init, ClassType(target.name)
            if isinstance(target, FunctionModel):
                return target, target.return_type
            return None, None
        if isinstance(func, ast.Attribute):
            owner = self._receiver_class(func.value)
            if owner is not None:
                method = owner.find_method(func.attr)
                if method is not None:
                    return method, method.return_type
                return None, None
            # `module.symbol(...)` through a project module alias.
            name = _dotted_name(func)
            if name and len(name) >= 2:
                target = self.resolver.lookup_dotted(name)
                if isinstance(target, ClassModel):
                    return target.find_method("__init__"), ClassType(target.name)
                if isinstance(target, FunctionModel):
                    return target, target.return_type
            # Container accessors hand back their element type.
            container = self._type_of(func.value)
            if isinstance(container, DictType) and func.attr in (
                "get", "setdefault", "pop"
            ):
                return None, container.value
            if isinstance(container, ListType) and func.attr == "pop":
                return None, container.elem
        return None, None

    # -- lock identity -------------------------------------------------------

    def _lock_id(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            owner = self._receiver_class(node.value)
            if owner is not None:
                return owner.lock_attrs().get(node.attr)
        ref = self._type_of(node)
        if isinstance(ref, LockValue):
            return ref.family
        return None

    # -- exception / nondeterminism / order context --------------------------

    def _caught(self) -> tuple:
        """Handler type names active at the current walk position."""
        return tuple(
            name for frame in self._caught_stack for name in frame
        )

    def _is_module_global(self, name: str) -> bool:
        if name in self._global_decls:
            return True
        return name in self.module.global_names and (
            name not in self._local_names
        )

    def _unordered_source(self, node: ast.expr) -> str | None:
        """A description when ``node`` evaluates to an unordered
        collection (set literal/comprehension/constructor, a tainted
        local, or a set operation over one); None otherwise."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return f"{node.func.id}(...)"
            return None
        if isinstance(node, ast.Name) and node.id in self._set_locals:
            return f"the set {node.id!r}"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._unordered_source(node.left) or (
                self._unordered_source(node.right)
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference", "copy",
            ):
                return self._unordered_source(node.func.value)
        return None

    def _order_escapes_in(self, node: ast.expr | None) -> list:
        """(source, line) pairs where an unordered collection's iteration
        order reaches the value of ``node`` unsanitized."""
        if node is None:
            return []
        out: list[tuple[str, int]] = []
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                if sub.func.id in ORDER_NEUTRAL_CALLS:
                    continue  # sorted()/len()/... absorb the order
                if sub.func.id in ("list", "tuple") and sub.args:
                    source = self._unordered_source(sub.args[0])
                    if source is not None:
                        out.append((source, sub.lineno))
                        continue
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ) and sub.func.attr == "join" and sub.args:
                source = self._unordered_source(sub.args[0])
                if source is not None:
                    out.append((source, sub.lineno))
                    continue
            if isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in sub.generators:
                    source = self._unordered_source(comp.iter)
                    if source is not None:
                        out.append((source, sub.lineno))
            if isinstance(sub, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in sub.ops
            ):
                continue  # membership tests are order-free
            source = self._unordered_source(sub)
            if source is not None:
                out.append((source, sub.lineno))
                continue
            stack.extend(ast.iter_child_nodes(sub))
        return out

    def _record_order_escapes(self, node: ast.expr | None, via: str) -> None:
        for source, line in self._order_escapes_in(node):
            self.function.order_escapes.append(
                OrderEscape(source=source, line=line, via=via)
            )

    def _record_nondet(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        kind = what = None
        if name is not None:
            if len(name) >= 2 and (name[-2], name[-1]) in NONDET_QUALIFIED:
                kind = NONDET_QUALIFIED[(name[-2], name[-1])]
                what = ".".join(name[-2:])
        if kind is None and isinstance(node.func, ast.Attribute) and (
            node.func.attr in NONDET_ATTRS
        ):
            kind, what = NONDET_ATTRS[node.func.attr], node.func.attr
        if kind is None:
            return
        if kind == "fs" and id(node) in self._sanitized:
            return  # sorted(os.listdir(...)) — order fixed by the caller
        self.function.nondet_calls.append(
            NondetCall(kind=kind, what=what, line=node.lineno)
        )

    def _record_global_write(self, name: str, line: int) -> None:
        self.function.global_writes.append(
            GlobalWrite(target=f"{self.module.dotted}:{name}", line=line)
        )

    def _raise_type(self, exc: ast.expr | None) -> str | None:
        """The exception type name a ``raise`` statement throws, or
        "<unknown>" for dynamic values, or None for bare re-raise."""
        if exc is None:
            return None  # bare re-raise: already counted at the origin
        node = exc
        if isinstance(node, ast.Call):
            node = node.func
        dotted = _dotted_name(node)
        if dotted is None:
            return "<unknown>"
        name = dotted[-1]
        if name[:1].isupper():
            return name
        return "<unknown>"  # raise from a local variable

    # -- effect recording ----------------------------------------------------

    def _record_access(
        self, cls: ClassModel, attr: str, write, line, held, assigned=False
    ):
        if attr not in cls.field_names() and attr not in cls.lock_attrs():
            return
        self.function.accesses.append(
            FieldAccess(
                cls=cls.name, attr=attr, write=write, line=line,
                held=frozenset(held), assigned=assigned,
            )
        )

    def _walk_expr(self, node: ast.expr | None, held: frozenset) -> None:
        if node is None:
            return
        consumed: set[int] = set()
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Lambda):
                continue  # runs later, in an unknown lock context
            if isinstance(sub, ast.Call):
                if isinstance(
                    sub.func, ast.Name
                ) and sub.func.id in ORDER_SANITIZERS:
                    # sorted(os.listdir(...)): the wrapped enumeration's
                    # order never escapes.
                    self._sanitized.update(
                        id(arg) for arg in sub.args
                        if isinstance(arg, ast.Call)
                    )
                # `self.x.setdefault(...)` and friends mutate the field.
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_ATTRS
                    and isinstance(func.value, ast.Attribute)
                ):
                    owner = self._receiver_class(func.value.value)
                    if owner is not None and owner.find_method(
                        func.value.attr
                    ) is None:
                        self._record_access(
                            owner, func.value.attr, True, sub.lineno, held
                        )
                        consumed.add(id(func.value))
                # `_CACHE.setdefault(...)` on a module-level name is a
                # hidden module-state write.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_ATTRS
                    and isinstance(func.value, ast.Name)
                    and self._is_module_global(func.value.id)
                ):
                    self._record_global_write(func.value.id, sub.lineno)
                self._record_call(sub, held)
            if isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                dotted = _dotted_name(sub)
                if dotted == ("os", "environ"):
                    self.function.nondet_calls.append(
                        NondetCall(
                            kind="env", what="os.environ", line=sub.lineno
                        )
                    )
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in consumed
            ):
                owner = self._receiver_class(sub.value)
                if owner is not None and owner.find_method(sub.attr) is None:
                    self._record_access(
                        owner, sub.attr, False, sub.lineno, held
                    )
            stack.extend(ast.iter_child_nodes(sub))

    def _record_call(self, node: ast.Call, held: frozenset) -> None:
        callee, _result = self._resolve_call(node)
        if callee is not None:
            self.function.calls.append(
                CallSite(
                    callee=callee, line=node.lineno, held=held,
                    caught=self._caught(),
                )
            )
        deferred = self._deferred_target(node)
        if deferred is not None:
            # The function runs later, on a pool thread or the server's
            # loop, holding none of the caller's locks; a route entry's
            # handler is called by the server's dispatch.
            self.function.calls.append(
                CallSite(
                    callee=deferred, line=node.lineno, held=frozenset(),
                    caught=self._caught(),
                )
            )
        unresolved = callee is None
        if unresolved and isinstance(node.func, ast.Name):
            target = self.resolver.lookup(node.func.id)
            if target is None and node.func.id not in self._local_names:
                # A bare-name builtin stays provable; a local callable
                # (``fn = getattr(...)``) could be any project code.
                unresolved = False
            elif isinstance(target, ClassModel):
                # A constructor with no __init__/__post_init__ of its
                # own (plain exception subclasses) runs no project code.
                unresolved = target.find_method("__post_init__") is not None
        if unresolved:
            # An unresolved attribute/aliased call could reach any
            # project code; the raise-set is no longer provable.
            self.function.unresolved_calls += 1
        for block in self._try_stack:
            if callee is not None:
                block.callees.append(callee)
            elif unresolved:
                block.complete = False
        self._record_nondet(node)
        self._record_blocking(node, held)
        self._record_io(node, held)
        self._record_registration(node)

    def _deferred_target(self, node: ast.Call) -> "FunctionModel | None":
        """The project function a call hands on to be run later, if
        resolvable: the ``fn`` of ``loop.run_in_executor(pool, fn, ...)``
        or ``pool.submit(fn, ...)``, or the handler of a route-table
        entry ``Route(handler, ...)``."""
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "run_in_executor" and len(node.args) >= 2:
            target = node.args[1]
        elif name in ("submit", "Route") and node.args:
            target = node.args[0]
        else:
            return None
        if isinstance(target, ast.Attribute):
            owner = self._receiver_class(target.value)
            return owner.find_method(target.attr) if owner is not None else None
        if isinstance(target, ast.Name):
            found = self.resolver.lookup(target.id)
            return found if isinstance(found, FunctionModel) else None
        return None

    def _record_blocking(self, node: ast.Call, held: frozenset) -> None:
        name = _dotted_name(node.func)
        tail = name[-1] if name else getattr(node.func, "attr", None)
        what, file_io = None, True
        if name is not None and len(name) == 1 and name[0] in FILE_IO_BARE:
            what = name[0]
        elif name is not None and name[-2:] in BLOCKING_QUALIFIED:
            what, file_io = ".".join(name[-2:]), name[-2:] in FILE_IO_QUALIFIED
        elif tail in FILE_IO_ATTRS:
            what = tail
        if what is not None:
            self.function.blocking.append(
                BlockingCall(what=what, line=node.lineno, held=held,
                             file_io=file_io)
            )

    def _record_io(self, node: ast.Call, held: frozenset) -> None:
        name = _dotted_name(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        events = self.function.io_events
        if attr in WRITE_ATTRS or (
            name and len(name) >= 2 and (name[-2], name[-1]) == ("json", "dump")
        ):
            events.append(IOEvent("write", node.lineno))
        elif attr == "flush":
            events.append(IOEvent("flush", node.lineno))
        elif name and len(name) >= 2 and (name[-2], name[-1]) == ("os", "fsync"):
            events.append(IOEvent("fsync", node.lineno))
        elif attr is not None and "fsync" in attr:
            # A helper whose name advertises fsyncing counts as one
            # (`self._fsync_directory(...)`).
            events.append(IOEvent("fsync", node.lineno))
        if name and len(name) >= 2 and (name[-2], name[-1]) in (
            ("os", "replace"), ("os", "rename")
        ):
            origin = None
            if node.args:
                source = node.args[0]
                if isinstance(source, ast.Name):
                    candidate = self.env.get(source.id)
                    if isinstance(candidate, TempFile):
                        origin = candidate
            events.append(IOEvent("replace", node.lineno, origin=origin))
        if attr == "append":
            owner = self._receiver_class(node.func.value)
            if owner is not None and owner.find_method("append") is not None:
                events.append(IOEvent("commit_append", node.lineno))

    def _record_registration(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        if name is None:
            return
        kind = None
        if (name[-2:] if len(name) >= 2 else name) == ("signal", "signal"):
            kind, target_node = "signal", node.args[1] if len(node.args) > 1 else None
        elif len(name) >= 2 and (name[-2], name[-1]) == ("atexit", "register"):
            kind, target_node = "atexit", node.args[0] if node.args else None
        if kind is None or target_node is None:
            return
        target: FunctionModel | None = None
        if isinstance(target_node, ast.Name):
            looked = self.resolver.lookup(target_node.id)
            if isinstance(looked, FunctionModel):
                target = looked
        elif isinstance(target_node, ast.Attribute):
            owner = self._receiver_class(target_node.value)
            if owner is not None:
                target = owner.find_method(target_node.attr)
        self.function.registrations.append(
            Registration(kind=kind, target=target, line=node.lineno)
        )

    # -- assignment / statement walk -----------------------------------------

    def _assign_target(self, target: ast.expr, value_type, held, line) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._global_decls:
                self._record_global_write(target.id, line)
            if value_type is not None:
                self.env[target.id] = value_type
            else:
                self.env.pop(target.id, None)
            return
        receiver = target
        if isinstance(target, ast.Subscript):
            receiver = target.value
        if isinstance(receiver, ast.Name) and self._is_module_global(
            receiver.id
        ):
            # `_CACHE[key] = value` on a module-level name.
            self._record_global_write(receiver.id, line)
        if isinstance(receiver, ast.Attribute):
            if isinstance(
                receiver.value, ast.Name
            ) and self._is_module_global(receiver.value.id):
                self._record_global_write(receiver.value.id, line)
            owner = self._receiver_class(receiver.value)
            if owner is not None:
                self._record_access(
                    owner, receiver.attr, True, line, held, assigned=True
                )
        if isinstance(target, (ast.Tuple, ast.List)):
            elems = (
                value_type.elems
                if isinstance(value_type, TupleType)
                else (None,) * len(target.elts)
            )
            for sub, sub_type in zip(target.elts, elems):
                self._assign_target(sub, sub_type, held, line)

    def _value_type_with_tempfiles(self, node: ast.expr):
        """Value typing plus the temp-file idioms D002 certifies."""
        name = _dotted_name(node.func) if isinstance(node, ast.Call) else None
        if name and len(name) >= 2 and (name[-2], name[-1]) == (
            "tempfile", "mkstemp"
        ):
            same_dir = any(kw.arg == "dir" for kw in node.keywords)
            return TupleType((None, TempFile(same_dir=same_dir)))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("with_name", "with_suffix")
        ):
            return TempFile(same_dir=True)
        return self._type_of(node)

    def walk(self) -> None:
        held = frozenset(
            lock for lock in self.function.declared_locks
        )
        self._walk_block(self.function.node.body, held)

    def _walk_block(self, statements, held: frozenset) -> None:
        for statement in statements:
            self._walk_stmt(statement, held)

    def _walk_stmt(self, node: ast.stmt, held: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions run in an unknown lock context
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            self._walk_expr(value, held)
            value_type = (
                self._value_type_with_tempfiles(value)
                if value is not None
                else None
            )
            if isinstance(node, ast.AnnAssign) and value_type is None:
                value_type = self.resolver.resolve_annotation(node.annotation)
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(node, ast.AugAssign):
                    # += reads then writes the same location.
                    self._walk_expr_target_read(target, held)
                self._assign_target(target, value_type, held, node.lineno)
                if isinstance(target, ast.Name) and not isinstance(
                    node, ast.AugAssign
                ):
                    if value is not None and self._unordered_source(value):
                        self._set_locals.add(target.id)
                    else:
                        self._set_locals.discard(target.id)
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    # Unordered iteration order persisted into object or
                    # module state escapes the function.
                    self._record_order_escapes(value, "state")
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._assign_target(target, None, held, node.lineno)
            return
        if isinstance(node, ast.With):
            new_held = set(held)
            for item in node.items:
                self._walk_expr(item.context_expr, held)
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    self.function.acquisitions.append(
                        Acquisition(lock=lock, line=node.lineno, held=held)
                    )
                    new_held.add(lock)
            self._walk_block(node.body, frozenset(new_held))
            return
        if isinstance(node, ast.Return):
            self.function.returns.append(node.lineno)
            self._record_order_escapes(node.value, "return")
            self._walk_expr(node.value, held)
            return
        if isinstance(node, ast.Expr):
            if isinstance(node.value, (ast.Yield, ast.YieldFrom)):
                self._record_order_escapes(node.value.value, "yield")
            self._walk_expr(node.value, held)
            return
        if isinstance(node, (ast.If, ast.While)):
            self._walk_expr(node.test, held)
            self._walk_block(node.body, held)
            self._walk_block(node.orelse, held)
            return
        if isinstance(node, ast.For):
            self._walk_expr(node.iter, held)
            if self._unordered_source(node.iter):
                # Locals accumulated inside a loop over an unordered
                # collection inherit its (hash-dependent) order.
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("append", "extend", "insert")
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        self._set_locals.add(sub.func.value.id)
                    elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        self.function.order_escapes.append(
                            OrderEscape(
                                source=self._unordered_source(node.iter),
                                line=node.lineno, via="yield",
                            )
                        )
            iter_type = self._type_of(node.iter)
            elem = iter_type.elem if isinstance(iter_type, ListType) else None
            self._assign_target(node.target, elem, held, node.lineno)
            self._walk_block(node.body, held)
            self._walk_block(node.orelse, held)
            return
        if isinstance(node, ast.Try):
            clauses = [_except_clause(handler) for handler in node.handlers]
            block = TryBlock(line=node.lineno, clauses=clauses)
            caught = tuple(
                name
                for clause in clauses
                if not clause.reraises
                for name in (clause.types or ("<bare>",))
            )
            self._try_stack.append(block)
            self._caught_stack.append(caught)
            self._walk_block(node.body, held)
            self._caught_stack.pop()
            self._try_stack.pop()
            self.function.try_blocks.append(block)
            for handler in node.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(node.orelse, held)
            self._walk_block(node.finalbody, held)
            return
        if isinstance(node, ast.Raise):
            type_name = self._raise_type(node.exc)
            if type_name is not None:
                self.function.raises.append(
                    RaiseSite(
                        type_name=type_name, line=node.lineno,
                        caught=self._caught(),
                    )
                )
                for block in self._try_stack:
                    block.raise_types.append(type_name)
            self._walk_expr(node.exc, held)
            return
        # Anything else: record the calls/reads it contains.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child, held)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, held)

    def _walk_expr_target_read(self, target: ast.expr, held: frozenset) -> None:
        receiver = target.value if isinstance(target, ast.Subscript) else target
        if isinstance(receiver, ast.Attribute):
            owner = self._receiver_class(receiver.value)
            if owner is not None:
                self._record_access(
                    owner, receiver.attr, False, target.lineno, held
                )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _finish_model(project: ProjectModel) -> ProjectModel:
    for module in project.modules.values():
        for cls in module.classes.values():
            if cls.name in project.classes:
                project.ambiguous_classes.add(cls.name)
            project.classes[cls.name] = cls
    _resolve_symbols(project)
    _resolve_class_details(project)
    _resolve_signatures(project)
    for module in project.modules.values():
        for function in _module_function_models(module):
            _BodyWalker(project, module, function).walk()
    return project


def build_model(paths: list[str | Path]) -> ProjectModel:
    """Build the whole-program model from ``.py`` files/directories."""
    project = ProjectModel()
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        root = path if path.is_dir() else path.parent
        for file in files:
            _add_module(project, file, _module_name(root, file))
    return _finish_model(project)


def build_model_from_sources(sources: dict[str, str]) -> ProjectModel:
    """Build the model from in-memory modules (``{"pkg/mod.py": source}``)
    — the unit-test entry point."""
    project = ProjectModel()
    for path, source in sources.items():
        dotted = ".".join(Path(path).with_suffix("").parts)
        _add_module(project, path, dotted, source)
    return _finish_model(project)

"""``repro purity``: replay-determinism and exception-flow rules.

PR 6 made sessions durable by replaying journaled turns through the
turn pipeline; that only works if every function reachable from a
pipeline stage is *replay-deterministic* — same inputs, same bytes,
in a different process on a different day — and if no exception can
kill a worker between the journal commit point and the response.
Both properties were previously enforced at runtime (the
``sessions_replay_mismatch_total`` counter, the worker restart path);
these rules prove them at CI time over the whole-program model from
:mod:`repro.analysis.model`.

Diagnostic codes
----------------
======  =========================  =========================================
L002    direct-clock-call          ``time.time()`` etc. in a module whose
                                   functions take an injectable ``clock``
L003    swallowed-exception        broad ``except`` that neither uses its
                                   error nor re-raises it
P001    nondet-in-turn-path        wall-clock/random/uuid/entropy call
                                   reachable from a pipeline stage without
                                   the injected clock/rng
P002    order-escape               unordered-collection iteration order
                                   escaping into returned values or state
                                   on the turn path (hash-randomized across
                                   processes)
P003    hidden-state-write         mutation of KB/module-global state from
                                   the turn path — state snapshots do not
                                   capture, so replay diverges
P004    environment-dependence     ``os.environ``/filesystem enumeration on
                                   the turn path
X001    stage-exception-escape     exception type that can propagate out of
                                   a stage uncaught by the pipeline's
                                   handler (worker-killing)
X002    dead-except-clause         handler type unreachable given the
                                   (provably complete) callee raise-set
X003    over-broad-catch           bare ``except:``/``except BaseException``
                                   without re-raise — swallows
                                   ``KeyboardInterrupt``/``SystemExit``
======  =========================  =========================================

Every interprocedural finding carries an EXPLAIN-style witness chain —
the shortest discovered call path from a stage entry point down to the
offending call, raise, or write — both in the message and as the
``chain`` list in the JSON payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Location,
    Severity,
)
from repro.analysis.model import (
    FunctionModel,
    ProjectModel,
    build_model,
    build_model_from_sources,
)


@dataclass(frozen=True)
class PurityConfig:
    """Tunable scope of the purity pass (mirrors ``RaceConfig``)."""

    #: Base class marking turn-pipeline stages; the turn path is
    #: everything reachable from these classes' entry methods.
    stage_base: str = "Stage"
    #: Entry methods of a stage (``run`` plus the ``handle`` hook the
    #: act stages dispatch to).
    stage_methods: tuple[str, ...] = ("run", "handle")
    #: Exception types the pipeline/serving handler catches; anything
    #: else escaping a stage kills the worker (X001).
    handler_catches: tuple[str, ...] = ("EngineError",)
    #: Types that follow the abstract-stub/assertion convention and are
    #: never expected at runtime — excluded from X001.
    nonpropagating: tuple[str, ...] = ("NotImplementedError", "AssertionError")
    #: Dotted-module prefixes holding shared KB state not captured by
    #: context snapshots; writes from the turn path are P003.
    state_modules: tuple[str, ...] = ("repro.kb",)
    #: Witness chains longer than this are not explored.
    max_chain: int = 10


#: The builtin exception hierarchy the subtype reasoning needs —
#: parents of every type the codebase raises or catches.
BUILTIN_PARENTS: dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "OSError": "Exception",
    "IOError": "Exception",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "SyntaxError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}


def _chain_text(chain: tuple) -> str:
    return " -> ".join(f"{qualname}:{line}" for qualname, line in chain)


def _chain_payload(chain: tuple) -> tuple:
    return tuple(f"{qualname}:{line}" for qualname, line in chain)


class _Hierarchy:
    """Subtype reasoning over project + builtin exception classes."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self._memo: dict[str, frozenset] = {}

    def ancestors(self, name: str) -> frozenset:
        """``name`` plus every resolvable ancestor type name."""
        cached = self._memo.get(name)
        if cached is not None:
            return cached
        out: set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop()
            if current in out:
                continue
            out.add(current)
            cls = self.project.resolve_class(current)
            if cls is not None and cls.base_names:
                queue.extend(base.split(".")[-1] for base in cls.base_names)
            elif current in BUILTIN_PARENTS:
                queue.append(BUILTIN_PARENTS[current])
        result = frozenset(out)
        self._memo[name] = result
        return result

    def catches(self, raised: str, caught: tuple) -> bool:
        """Would a handler for the ``caught`` type names stop ``raised``?"""
        if "<bare>" in caught:
            return True
        if raised == "<unknown>":
            # A dynamic raise could be anything: only the catch-alls
            # provably stop it.
            return "Exception" in caught or "BaseException" in caught
        lineage = self.ancestors(raised)
        return any(name in lineage for name in caught)


class PurityAnalysis:
    """Summaries + rules over one :class:`ProjectModel`."""

    def __init__(self, project: ProjectModel, config: PurityConfig) -> None:
        self.project = project
        self.config = config
        self.functions = list(project.all_functions())
        self.hierarchy = _Hierarchy(project)
        self._find_stage_entries()
        self._compute_reachability()
        self._summarize_raises()
        self._compute_closedness()
        self.constructing = project.constructing()  # P003 exemption

    # -- stage entry points --------------------------------------------------

    def _find_stage_entries(self) -> None:
        """Own ``run``/``handle`` methods of every ``Stage`` subclass."""
        self.entries: list[FunctionModel] = []
        base = self.config.stage_base
        for module in self.project.modules.values():
            for cls in module.classes.values():
                if not any(c.name == base for c in cls.mro()[1:]):
                    continue
                for method in self.config.stage_methods:
                    fn = cls.methods.get(method)
                    if fn is not None:
                        self.entries.append(fn)

    # -- turn-path reachability with witness chains --------------------------

    def _compute_reachability(self) -> None:
        """Multi-source BFS from the stage entries: for each reachable
        function, the shortest discovered call chain from an entry."""
        self.reach: dict[int, tuple[FunctionModel, tuple]] = {}
        queue: list[tuple[FunctionModel, tuple]] = []
        for entry in self.entries:
            if id(entry) not in self.reach:
                self.reach[id(entry)] = (entry, ())
                queue.append((entry, ()))
        while queue:
            function, chain = queue.pop(0)
            if len(chain) >= self.config.max_chain:
                continue
            for call in function.calls:
                callee = call.callee
                if callee is None or id(callee) in self.reach:
                    continue
                step = chain + ((function.qualname, call.line),)
                self.reach[id(callee)] = (callee, step)
                queue.append((callee, step))

    def _turn_path(self):
        """Reachable functions in deterministic order."""
        return sorted(
            self.reach.values(), key=lambda item: (item[0].path, item[0].lineno)
        )

    def _witness(self, function: FunctionModel, line: int) -> tuple:
        """Entry-to-offense chain: the reach prefix plus the final hop."""
        _fn, prefix = self.reach[id(function)]
        return prefix + ((function.qualname, line),)

    # -- transitive raise summaries ------------------------------------------

    def _summarize_raises(self) -> None:
        """Fixpoint: exception types escaping each function, each with a
        shortest-discovered chain of ``(function, line)`` hops, filtered
        by the ``except`` handlers enclosing every raise/call site."""
        self.raise_chains: dict[int, dict[str, tuple]] = {}
        for function in self.functions:
            own: dict[str, tuple] = {}
            for site in reversed(function.raises):
                if self.hierarchy.catches(site.type_name, site.caught):
                    continue
                own[site.type_name] = ((function, site.line),)
            self.raise_chains[id(function)] = own
        changed = True
        while changed:
            changed = False
            for function in self.functions:
                mine = self.raise_chains[id(function)]
                for call in function.calls:
                    if call.callee is None or call.callee is function:
                        continue
                    theirs = self.raise_chains[id(call.callee)]
                    for type_name, chain in theirs.items():
                        if type_name in mine:
                            continue
                        if self.hierarchy.catches(type_name, call.caught):
                            continue
                        if len(chain) >= self.config.max_chain:
                            continue
                        mine[type_name] = ((function, call.line),) + chain
                        changed = True

    # -- raise-set completeness (X002's provability gate) --------------------

    def _compute_closedness(self) -> None:
        """Greatest fixpoint: a function's raise-set is provably complete
        iff it has no unresolved calls and every callee's is."""
        closed = {
            id(f): f.unresolved_calls == 0 for f in self.functions
        }
        changed = True
        while changed:
            changed = False
            for function in self.functions:
                if not closed[id(function)]:
                    continue
                for call in function.calls:
                    if call.callee is None:
                        continue
                    if not closed[id(call.callee)]:
                        closed[id(function)] = False
                        changed = True
                        break
        self.closed = closed

    # -- L002: direct clock calls in clock-injected modules -----------------

    def check_direct_clock(self, out: DiagnosticCollector) -> None:
        injected = {
            function.path for function in self.functions
            if "clock" in function.param_types
        }
        for function in self.functions:
            if function.path not in injected:
                continue
            for call in function.nondet_calls:
                if call.kind == "clock":
                    out.error(
                        "L002",
                        f"direct {call.what}() call in a module with an "
                        "injectable clock; thread the clock through instead",
                        Location(function.path, call.line, function.qualname),
                        rule="direct-clock-call",
                    )

    # -- P001/P004: nondeterminism on the turn path --------------------------

    def check_nondet(self, out: DiagnosticCollector) -> None:
        for function, _chain in self._turn_path():
            for call in function.nondet_calls:
                witness = self._witness(function, call.line)
                via = (
                    f" (chain: {_chain_text(witness)})"
                    if len(witness) > 1
                    else ""
                )
                if call.kind in ("clock", "random", "uuid", "entropy"):
                    out.error(
                        "P001",
                        f"nondeterministic call {call.what} ({call.kind}) "
                        f"on the turn path — replaying a journaled turn "
                        f"reproduces a different value; inject the pipeline "
                        f"clock/rng instead{via}",
                        Location(function.path, call.line, function.qualname),
                        rule="nondet-in-turn-path",
                        chain=_chain_payload(witness),
                    )
                else:  # env | fs
                    out.error(
                        "P004",
                        f"{call.what} ({call.kind}) on the turn path — the "
                        f"turn's result depends on the process environment "
                        f"or filesystem state, which journal replay does "
                        f"not reproduce{via}",
                        Location(function.path, call.line, function.qualname),
                        rule="environment-dependence",
                        chain=_chain_payload(witness),
                    )

    # -- P002: unordered iteration order escaping ----------------------------

    def check_order_escapes(self, out: DiagnosticCollector) -> None:
        for function, _chain in self._turn_path():
            for escape in function.order_escapes:
                witness = self._witness(function, escape.line)
                via = (
                    f" (chain: {_chain_text(witness)})"
                    if len(witness) > 1
                    else ""
                )
                out.error(
                    "P002",
                    f"iteration order of {escape.source} escapes this "
                    f"function via {escape.via} on the turn path — set "
                    f"order varies across processes under str-hash "
                    f"randomization, so replayed responses are not "
                    f"byte-identical; sort before it escapes{via}",
                    Location(function.path, escape.line, function.qualname),
                    rule="order-escape",
                    chain=_chain_payload(witness),
                )

    # -- P003: hidden shared-state writes ------------------------------------

    def check_hidden_state(self, out: DiagnosticCollector) -> None:
        for function, _chain in self._turn_path():
            seen: set[str] = set()
            for write in function.global_writes:
                if write.target in seen:
                    continue
                seen.add(write.target)
                witness = self._witness(function, write.line)
                via = (
                    f" (chain: {_chain_text(witness)})"
                    if len(witness) > 1
                    else ""
                )
                out.error(
                    "P003",
                    f"module-global {write.target} is mutated on the turn "
                    f"path — snapshots do not capture module state, so a "
                    f"recovered worker replays against different "
                    f"state{via}",
                    Location(function.path, write.line, function.qualname),
                    rule="hidden-state-write",
                    chain=_chain_payload(witness),
                )
            if id(function) in self.constructing:
                # __init__ (and its init-only helpers) writes fields of
                # the object under construction — not shared state.
                continue
            for access in function.accesses:
                if not access.write:
                    continue
                cls = self.project.resolve_class(access.cls)
                if cls is None or not cls.module.startswith(
                    self.config.state_modules
                ):
                    continue
                key = f"{access.cls}.{access.attr}"
                if key in seen:
                    continue
                seen.add(key)
                witness = self._witness(function, access.line)
                via = (
                    f" (chain: {_chain_text(witness)})"
                    if len(witness) > 1
                    else ""
                )
                out.error(
                    "P003",
                    f"shared KB state {key} is written on the turn path — "
                    f"context snapshots capture the conversation, not the "
                    f"KB, so replay sees a different store{via}",
                    Location(function.path, access.line, function.qualname),
                    rule="hidden-state-write",
                    chain=_chain_payload(witness),
                )

    # -- X001: exceptions escaping a stage -----------------------------------

    def check_stage_exceptions(self, out: DiagnosticCollector) -> None:
        reported: set[tuple[str, str]] = set()
        catches = self.config.handler_catches
        for entry in self.entries:
            escaped = self.raise_chains[id(entry)]
            for type_name in sorted(escaped):
                chain = escaped[type_name]
                if type_name == "<unknown>":
                    continue
                if type_name in self.config.nonpropagating:
                    continue
                if self.hierarchy.catches(type_name, catches):
                    continue
                origin, origin_line = chain[-1]
                key = (origin.qualname, type_name)
                if key in reported:
                    continue
                reported.add(key)
                text = _chain_text(
                    tuple((fn.qualname, line) for fn, line in chain)
                )
                handler = " or ".join(catches)
                out.error(
                    "X001",
                    f"{type_name} raised at {origin.path}:{origin_line} "
                    f"can propagate out of stage {entry.qualname} — the "
                    f"pipeline handler catches only {handler}, so this "
                    f"kills the worker after the journal commit point "
                    f"(chain: {text})",
                    Location(origin.path, origin_line, origin.qualname),
                    rule="stage-exception-escape",
                    chain=tuple(f"{fn.qualname}:{line}" for fn, line in chain),
                )

    # -- X002: dead except clauses -------------------------------------------

    def check_dead_handlers(self, out: DiagnosticCollector) -> None:
        for function in self.functions:
            for block in function.try_blocks:
                if not block.complete:
                    continue
                if any(
                    not self.closed[id(callee)] for callee in block.callees
                ):
                    continue
                possible: set[str] = set(block.raise_types)
                for callee in block.callees:
                    possible.update(self.raise_chains[id(callee)])
                if "<unknown>" in possible:
                    continue
                remaining = set(possible)
                for clause in block.clauses:
                    # Earlier clauses shadow later ones: a type already
                    # caught above never reaches this handler.
                    live = set(remaining)
                    remaining = {
                        raised for raised in remaining
                        if not self.hierarchy.catches(
                            raised, clause.types or ("<bare>",)
                        )
                    }
                    if not clause.types:
                        continue  # bare except: X003's business
                    if any(
                        self.project.resolve_class(name) is None
                        for name in clause.types
                    ):
                        # Builtin types can be raised by builtins the
                        # model does not track; only project exception
                        # types are provably dead.
                        continue
                    if any(
                        self.hierarchy.catches(raised, clause.types)
                        for raised in live
                    ):
                        continue
                    caught = ", ".join(clause.types)
                    raise_set = ", ".join(sorted(live)) or "nothing"
                    out.warning(
                        "X002",
                        f"except {caught} is dead — what reaches it is "
                        f"provably only: {raise_set}; the handler "
                        f"documents error handling that cannot happen",
                        Location(function.path, clause.line, function.qualname),
                        rule="dead-except-clause",
                    )

    # -- L003/X003: swallowing and over-broad catches ------------------------

    def _except_clauses(self):
        """(path, symbol, clause) for every handler that does not
        re-raise, nested functions and module scope included."""
        for module in self.project.modules.values():
            for symbol, clause in module.except_clauses:
                if not clause.reraises:
                    yield module.path, symbol, clause

    def check_swallowed_exceptions(self, out: DiagnosticCollector) -> None:
        for path, symbol, clause in self._except_clauses():
            if clause.uses_name or (
                clause.types
                and not {"Exception", "BaseException"} & set(clause.types)
            ):
                continue
            caught = "except Exception" if clause.types else "bare except"
            out.error(
                "L003",
                f"{caught} neither inspects nor re-raises the error — narrow "
                "the exception type or handle it explicitly",
                Location(path, clause.line, symbol),
                rule="swallowed-exception",
            )

    def check_broad_catches(self, out: DiagnosticCollector) -> None:
        for path, symbol, clause in self._except_clauses():
            if clause.types and "BaseException" not in clause.types:
                continue
            what = (
                "bare except:" if not clause.types
                else "except BaseException"
            )
            out.error(
                "X003",
                f"{what} without re-raise swallows KeyboardInterrupt "
                f"and SystemExit — the worker cannot be shut down or "
                f"drained cleanly through this handler",
                Location(path, clause.line, symbol),
                rule="over-broad-catch",
            )

    # -- entry points --------------------------------------------------------

    def lint(self) -> list[Diagnostic]:
        """The per-module rules ``repro lint`` reports (L002, L003)."""
        out = DiagnosticCollector()
        self.check_direct_clock(out)
        self.check_swallowed_exceptions(out)
        return out.sorted()

    def run(self) -> list[Diagnostic]:
        out = DiagnosticCollector()
        self.check_nondet(out)
        self.check_order_escapes(out)
        self.check_hidden_state(out)
        self.check_stage_exceptions(out)
        self.check_dead_handlers(out)
        self.check_broad_catches(out)
        return out.sorted()


def analyze_purity_model(
    project: ProjectModel, config: PurityConfig | None = None
) -> PurityAnalysis:
    return PurityAnalysis(project, config or PurityConfig())


def check_purity_paths(
    paths: list[str | Path], config: PurityConfig | None = None
) -> list[Diagnostic]:
    """Run the purity analyzer over ``.py`` files/directories."""
    return analyze_purity_model(build_model(paths), config).run()


def check_purity_sources(
    sources: dict[str, str], config: PurityConfig | None = None
) -> list[Diagnostic]:
    """Run the analyzer over in-memory modules (the unit-test entry:
    ``{"path/mod.py": source}``)."""
    return analyze_purity_model(build_model_from_sources(sources), config).run()

"""``repro race``: concurrency & crash-consistency rules.

These rules run over the whole-program model built by
:mod:`repro.analysis.model` — the same split as the conversation-space
checkers, where artifact generation and validation are separate layers.
L001 and L004 look at one method at a time; the R/D rules check
relations *between* methods: the lock-order graph, per-field guard
assignments across every access site in the project, and the
write→fsync→rename discipline of the durability layer.

Diagnostic codes
----------------
======  =========================  =========================================
L001    unlocked-shared-mutation   ``self.x`` written outside any lock in a
                                   class that owns a lock
L004    blocking-io-in-handler     file I/O inside a request-handler method
R001    lock-order-cycle           ``A→B`` in one path, ``B→A`` in another
R002    inconsistent-guard         same field accessed under different locks
                                   or both with and without one
R003    blocking-under-lock        blocking syscall while holding a lock a
                                   request-handler path also acquires
R004    lock-in-signal-handler     lock acquired on a ``signal``/``atexit``
                                   handler-reachable path
D001    rename-without-fsync       temp file written then ``os.replace``\\ d
                                   with no flush+fsync in between
D002    rename-without-tempdir     ``os.replace`` from a temp file not
                                   provably in the target's directory
D003    return-before-commit       return reachable before the journal
                                   append in a ``commit_*`` method
======  =========================  =========================================

Every finding carries EXPLAIN-style evidence: the acquisition chains
that close a cycle, the guarded/unguarded site lists, or the call chain
from the lock site to the blocking syscall.  ``lock_graph_dot`` renders
the lock-order graph (every edge with its witness site) as DOT for
``repro race --graph``.
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
    CALLER_HELD,
    FunctionModel,
    ProjectModel,
    build_model,
    build_model_from_sources,
)


@dataclass(frozen=True)
class RaceConfig:
    """Tunable scope of the race pass and of L001/L004."""

    #: Methods treated as request-handler entry points (R003's reach and
    #: L004's scope) wherever they appear in a handler module, plus
    #: ``do_*`` methods of ``*HTTPRequestHandler`` subclasses.  A
    #: server's ``_routes`` builds its route table, so it reaches every
    #: handler the table names.
    handler_methods: tuple[str, ...] = (
        "_process_request", "_routes", "handle", "chat", "feedback",
        "health", "_turn", "forward", "broadcast",
    )
    #: Path substrings whose modules are on the request path.
    handler_modules: tuple[str, ...] = ("serving", "persistence")
    #: Methods whose name starts with this prefix promise that their
    #: journal append is the commit point (D003).
    commit_prefix: str = "commit_"


def _real(held: frozenset) -> frozenset:
    """Concrete lock ids only — the caller-held wildcard never orders."""
    return frozenset(lock for lock in held if lock != CALLER_HELD)


def _chain_text(chain: tuple) -> str:
    return " -> ".join(f"{qualname}:{line}" for qualname, line in chain)


@dataclass
class LockEdge:
    """``src`` was held while ``dst`` was acquired, with a witness."""

    src: str
    dst: str
    function: FunctionModel
    line: int
    chain: tuple  # ((qualname, line), ...) from the witness site down

    def describe(self) -> str:
        via = f" via {_chain_text(self.chain)}" if len(self.chain) > 1 else ""
        return (
            f"{self.src} -> {self.dst} at {self.function.path}:{self.line} "
            f"in {self.function.qualname}{via}"
        )


class RaceAnalysis:
    """Summaries + rules over one :class:`ProjectModel`."""

    def __init__(self, project: ProjectModel, config: RaceConfig) -> None:
        self.project = project
        self.config = config
        self.functions = list(project.all_functions())
        self._summarize()
        self._build_lock_graph()
        self._find_handler_locks()
        self.constructing = project.constructing()  # R002 exemption

    # -- transitive effect summaries -----------------------------------------

    def _summarize(self) -> None:
        """Fixpoint: locks acquired / blocking calls reachable from each
        function, each with a shortest-discovered witness chain."""
        for function in self.functions:
            function.trans_acquires = {
                acq.lock: ((function.qualname, acq.line),)
                for acq in reversed(function.acquisitions)
            }
            function.trans_blocking = {
                call.what: ((function.qualname, call.line),)
                for call in reversed(function.blocking)
            }
        changed = True
        while changed:
            changed = False
            for function in self.functions:
                for call in function.calls:
                    if call.callee is None or call.callee is function:
                        continue
                    step = ((function.qualname, call.line),)
                    for lock, chain in call.callee.trans_acquires.items():
                        if lock not in function.trans_acquires and (
                            len(chain) < 8
                        ):
                            function.trans_acquires[lock] = step + chain
                            changed = True
                    for what, chain in call.callee.trans_blocking.items():
                        if what not in function.trans_blocking and (
                            len(chain) < 8
                        ):
                            function.trans_blocking[what] = step + chain
                            changed = True

    # -- the lock-order graph ------------------------------------------------

    def _build_lock_graph(self) -> None:
        self.edges: dict[tuple[str, str], LockEdge] = {}
        self.lock_nodes: set[str] = set()
        for function in self.functions:
            for acq in function.acquisitions:
                self.lock_nodes.add(acq.lock)
                for held in sorted(_real(acq.held)):
                    self._add_edge(
                        held, acq.lock, function, acq.line,
                        ((function.qualname, acq.line),),
                    )
            for call in function.calls:
                if call.callee is None:
                    continue
                held = _real(call.held)
                if not held:
                    continue
                step = ((function.qualname, call.line),)
                for lock, chain in call.callee.trans_acquires.items():
                    for src in sorted(held):
                        self._add_edge(
                            src, lock, function, call.line, step + chain
                        )

    def _add_edge(self, src, dst, function, line, chain) -> None:
        if src == dst:
            return
        self.lock_nodes.update((src, dst))
        key = (src, dst)
        if key not in self.edges:
            self.edges[key] = LockEdge(
                src=src, dst=dst, function=function, line=line, chain=chain
            )

    # -- handler-reachable locks ---------------------------------------------

    def _is_handler_entry(self, function: FunctionModel) -> bool:
        if function.class_model is not None and function.name.startswith(
            "do_"
        ):
            for base in function.class_model.base_names:
                tail = base.split(".")[-1]
                if tail.endswith("HTTPRequestHandler") or tail.endswith(
                    "_Handler"
                ):
                    return True
        in_scope = any(
            fragment in function.path
            for fragment in self.config.handler_modules
        )
        return in_scope and function.name in self.config.handler_methods

    def _find_handler_locks(self) -> None:
        """lock id → one request-handler entry point that acquires it."""
        self.handler_locks: dict[str, str] = {}
        for function in self.functions:
            if not self._is_handler_entry(function):
                continue
            for lock in function.trans_acquires:
                self.handler_locks.setdefault(lock, function.qualname)

    # -- R001: lock-order cycles ---------------------------------------------

    def check_lock_order(self, out: DiagnosticCollector) -> None:
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for node in adjacency:
            adjacency[node].sort()
        reported: set[tuple[str, ...]] = set()
        for start in sorted(adjacency):
            cycle = self._shortest_cycle(start, adjacency)
            if cycle is None:
                continue
            canonical = self._canonical_cycle(cycle)
            if canonical in reported:
                continue
            reported.add(canonical)
            edge_list = [
                self.edges[(cycle[i], cycle[i + 1])]
                for i in range(len(cycle) - 1)
            ]
            witness = edge_list[0]
            order = " -> ".join(cycle)
            evidence = "; ".join(edge.describe() for edge in edge_list)
            out.error(
                "R001",
                f"lock-order cycle: {order} — two paths acquire these "
                f"locks in opposite orders and can deadlock ({evidence})",
                Location(
                    witness.function.path, witness.line,
                    witness.function.qualname,
                ),
                rule="lock-order-cycle",
            )

    @staticmethod
    def _shortest_cycle(start: str, adjacency: dict) -> list[str] | None:
        """BFS back to ``start``: the shortest cycle through it, if any."""
        queue: list[tuple[str, list[str]]] = [(start, [start])]
        seen = {start}
        while queue:
            node, path = queue.pop(0)
            for neighbor in adjacency.get(node, ()):
                if neighbor == start:
                    return path + [start]
                if neighbor not in seen and len(path) < 8:
                    seen.add(neighbor)
                    queue.append((neighbor, path + [neighbor]))
        return None

    @staticmethod
    def _canonical_cycle(cycle: list[str]) -> tuple[str, ...]:
        body = cycle[:-1]
        pivot = body.index(min(body))
        return tuple(body[pivot:] + body[:pivot])

    # -- R002: inconsistently guarded fields ---------------------------------

    def check_field_guards(self, out: DiagnosticCollector) -> None:
        sites: dict[tuple[str, str], list] = {}
        for function in self.functions:
            if id(function) in self.constructing:
                continue
            for access in function.accesses:
                cls = self.project.resolve_class(access.cls)
                if cls is None or access.attr in cls.lock_attrs():
                    continue
                sites.setdefault((access.cls, access.attr), []).append(
                    (function, access)
                )
        for (cls_name, attr), group in sorted(sites.items()):
            self._check_one_field(cls_name, attr, group, out)

    def _check_one_field(self, cls_name, attr, group, out) -> None:
        field = f"{cls_name}.{attr}"
        writes = [
            (fn, access) for fn, access in group if access.write
        ]
        if not writes:
            return  # no post-launch writer: nothing to keep consistent
        if all(
            not _real(access.held) and CALLER_HELD not in access.held
            for _fn, access in group
        ):
            return  # consistently unguarded — not this rule's business
        guarded_writes = [
            (fn, access) for fn, access in writes
            if _real(access.held) or CALLER_HELD in access.held
        ]
        if not guarded_writes:
            return  # only reads take the lock; no write guard to enforce
        candidates: set[str] | None = None
        for _fn, access in guarded_writes:
            locks = _real(access.held)
            if not locks:  # caller-held wildcard: compatible with anything
                continue
            candidates = (
                set(locks) if candidates is None else candidates & locks
            )
        if candidates is not None and not candidates:
            evidence = "; ".join(
                f"write under {{{', '.join(sorted(_real(a.held))) or 'no lock'}}} "
                f"at {fn.path}:{a.line} ({fn.qualname})"
                for fn, a in guarded_writes
            )
            witness_fn, witness = guarded_writes[0]
            out.error(
                "R002",
                f"field {field} is written under different locks — no "
                f"single lock guards it ({evidence})",
                Location(witness_fn.path, witness.line, witness_fn.qualname),
                rule="inconsistent-guard",
            )
            return
        guard = sorted(candidates)[0] if candidates else CALLER_HELD
        offenders = [
            (fn, access) for fn, access in group
            if not _real(access.held) and CALLER_HELD not in access.held
        ]
        if not offenders:
            return
        guard_name = guard if guard != CALLER_HELD else "its class lock"
        evidence = "; ".join(
            f"{'write' if a.write else 'read'} at {fn.path}:{a.line} "
            f"({fn.qualname})"
            for fn, a in offenders
        )
        witness_fn, witness = offenders[0]
        out.error(
            "R002",
            f"field {field} is guarded by {guard_name} at "
            f"{len(group) - len(offenders)} site(s) but accessed without "
            f"it: {evidence}",
            Location(witness_fn.path, witness.line, witness_fn.qualname),
            rule="inconsistent-guard",
        )

    # -- L001: writes outside every lock in a lock-owning class --------------

    def check_unlocked_mutation(self, out: DiagnosticCollector) -> None:
        """Per method: a write to one of ``self``'s fields with no lock
        held, in a class that owns a lock.  Construction (as R002 exempts
        it) is exempt; ``*_locked`` methods and ``# locks:`` pragmas count
        as holding the declared lock."""
        for function in self.functions:
            cls = function.class_model
            if cls is None or id(function) in self.constructing:
                continue
            locks = cls.lock_attrs()
            if not locks:
                continue
            for access in function.accesses:
                if (
                    not access.assigned or access.held
                    or access.cls != cls.name or access.attr in locks
                ):
                    continue
                out.error(
                    "L001",
                    f"self.{access.attr} is mutated outside a 'with self."
                    f"{sorted(locks)[0]}:' block in a class that guards "
                    "its state with a lock",
                    Location(function.path, access.line, function.qualname),
                    rule="unlocked-shared-mutation",
                )

    # -- L004: blocking file I/O in request handlers -------------------------

    def check_blocking_io(self, out: DiagnosticCollector) -> None:
        for function in self.functions:
            if not self._is_handler_entry(function):
                continue
            for call in function.blocking:
                if call.file_io:
                    out.error(
                        "L004",
                        f"blocking file I/O ({call.what}) inside request "
                        f"handler {function.qualname}; move it off the "
                        "request path (e.g. to shutdown/flush)",
                        Location(function.path, call.line, function.qualname),
                        rule="blocking-io-in-handler",
                    )

    # -- R003: blocking syscalls under a lock --------------------------------

    def check_blocking_under_lock(self, out: DiagnosticCollector) -> None:
        for function in self.functions:
            seen: set[str] = set()
            events: list[tuple[int, str, str, tuple]] = []
            for call in function.blocking:
                for lock in sorted(_real(call.held)):
                    events.append(
                        (
                            call.line, lock, call.what,
                            ((function.qualname, call.line),),
                        )
                    )
            for call in function.calls:
                if call.callee is None:
                    continue
                held = sorted(_real(call.held))
                if not held:
                    continue
                for what, chain in sorted(call.callee.trans_blocking.items()):
                    step = ((function.qualname, call.line),)
                    for lock in held:
                        events.append((call.line, lock, what, step + chain))
            for line, lock, what, chain in sorted(events):
                if lock in seen:
                    continue
                seen.add(lock)
                handler = self.handler_locks.get(lock)
                reach = (
                    f", which request-handler path {handler} also acquires"
                    if handler
                    else ""
                )
                via = (
                    f"; chain: {_chain_text(chain)}"
                    if len(chain) > 1
                    else ""
                )
                out.emit(
                    "R003",
                    Severity.ERROR if handler else Severity.WARNING,
                    f"blocking call ({what}) while holding {lock}"
                    f"{reach}{via}",
                    Location(function.path, line, function.qualname),
                    rule="blocking-under-lock",
                )

    # -- R004: locks on signal/atexit paths ----------------------------------

    def check_signal_handlers(self, out: DiagnosticCollector) -> None:
        for function in self.functions:
            for registration in function.registrations:
                target = registration.target
                if target is None:
                    continue
                for lock, chain in sorted(target.trans_acquires.items()):
                    out.error(
                        "R004",
                        f"{registration.kind} handler {target.qualname} "
                        f"acquires {lock} — lock acquisition on an async "
                        f"handler path can deadlock against the "
                        f"interrupted holder (chain: {_chain_text(chain)})",
                        Location(
                            function.path, registration.line,
                            function.qualname,
                        ),
                        rule="lock-in-signal-handler",
                    )

    # -- D001/D002: write → fsync → rename discipline ------------------------

    def check_rename_discipline(self, out: DiagnosticCollector) -> None:
        for function in self.functions:
            events = sorted(function.io_events, key=lambda e: e.line)
            for event in events:
                if event.kind != "replace":
                    continue
                writes = [
                    e for e in events
                    if e.kind == "write" and e.line < event.line
                ]
                fsyncs = [
                    e for e in events
                    if e.kind == "fsync" and e.line <= event.line
                ]
                if writes and not fsyncs:
                    out.error(
                        "D001",
                        f"data written at line "
                        f"{writes[-1].line} is renamed into place at line "
                        f"{event.line} with no fsync in between — after a "
                        f"crash the rename can survive while the data does "
                        f"not",
                        Location(
                            function.path, event.line, function.qualname
                        ),
                        rule="rename-without-fsync",
                    )
                origin = event.origin
                if origin is not None and not origin.same_dir:
                    out.error(
                        "D002",
                        f"os.replace source at line {event.line} comes from "
                        f"a temp file not created in the target's directory "
                        f"(no dir= to mkstemp) — the rename may cross "
                        f"filesystems and lose atomicity",
                        Location(
                            function.path, event.line, function.qualname
                        ),
                        rule="rename-without-tempdir",
                    )

    # -- D003: returns before the commit point -------------------------------

    def check_commit_points(self, out: DiagnosticCollector) -> None:
        prefix = self.config.commit_prefix
        for function in self.functions:
            if not function.name.startswith(prefix):
                continue
            appends = sorted(
                [e.line for e in function.io_events if e.kind == "commit_append"]
                + [
                    # A same-class helper that appends is the commit point.
                    call.line for call in function.calls
                    if call.callee is not None
                    and function.class_model is not None
                    and call.callee.class_model is function.class_model
                    and any(
                        e.kind == "commit_append"
                        for e in call.callee.io_events
                    )
                ]
            )
            if not appends:
                out.error(
                    "D003",
                    f"{function.qualname} follows the {prefix}* commit "
                    f"convention but never reaches a journal append — "
                    f"every exit path returns before the commit point",
                    Location(
                        function.path, function.lineno, function.qualname
                    ),
                    rule="return-before-commit",
                )
                continue
            commit_line = appends[0]
            for line in sorted(function.returns):
                if line < commit_line:
                    out.error(
                        "D003",
                        f"return at line {line} is reachable before the "
                        f"journal-append commit point at line "
                        f"{commit_line} — the caller may observe success "
                        f"for a turn that was never made durable",
                        Location(function.path, line, function.qualname),
                        rule="return-before-commit",
                    )

    # -- entry points --------------------------------------------------------

    def lint(self) -> list[Diagnostic]:
        """The per-method rules ``repro lint`` reports (L001, L004)."""
        out = DiagnosticCollector()
        self.check_unlocked_mutation(out)
        self.check_blocking_io(out)
        return out.sorted()

    def run(self) -> list[Diagnostic]:
        out = DiagnosticCollector()
        self.check_lock_order(out)
        self.check_field_guards(out)
        self.check_blocking_under_lock(out)
        self.check_signal_handlers(out)
        self.check_rename_discipline(out)
        self.check_commit_points(out)
        return out.sorted()

    def graph_dot(self) -> str:
        """The lock-order graph as DOT, every edge with its witness."""
        lines = ["digraph lock_order {", "  rankdir=LR;"]
        for node in sorted(self.lock_nodes):
            lines.append(f'  "{node}";')
        for (src, dst), edge in sorted(self.edges.items()):
            label = f"{Path(edge.function.path).name}:{edge.line}"
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def analyze_model(
    project: ProjectModel, config: RaceConfig | None = None
) -> RaceAnalysis:
    return RaceAnalysis(project, config or RaceConfig())


def check_race_paths(
    paths: list[str | Path], config: RaceConfig | None = None
) -> list[Diagnostic]:
    """Run the race analyzer over ``.py`` files/directories."""
    return analyze_model(build_model(paths), config).run()


def check_race_sources(
    sources: dict[str, str], config: RaceConfig | None = None
) -> list[Diagnostic]:
    """Run the analyzer over in-memory modules (the unit-test entry:
    ``{"path/mod.py": source}``)."""
    return analyze_model(build_model_from_sources(sources), config).run()

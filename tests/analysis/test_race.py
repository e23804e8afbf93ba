"""Unit tests for the whole-program race analyzer (one fixture per code),
plus integration tests that the shipped tree is clean modulo the reviewed
baseline."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.diagnostics import Severity
from repro.analysis.model import build_model, build_model_from_sources
from repro.analysis.race import (
    RaceAnalysis,
    RaceConfig,
    analyze_model,
    check_race_paths,
    check_race_sources,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _diags(source, path="src/repro/serving/mod.py", config=None):
    return check_race_sources({path: textwrap.dedent(source)}, config)


def _codes(source, path="src/repro/serving/mod.py", config=None):
    return [d.code for d in _diags(source, path, config)]


class TestR001LockOrderCycle:
    TWO_LOCKS = """
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
    """

    def test_opposite_orders_flagged_once(self):
        diags = _diags(self.TWO_LOCKS + """
            def forward_path(self):
                with self._a:
                    with self._b:
                        pass

            def reverse_path(self):
                with self._b:
                    with self._a:
                        pass
        """)
        assert [d.code for d in diags] == ["R001"]
        message = diags[0].message
        assert "Pair._a" in message and "Pair._b" in message
        assert "opposite orders" in message
        # EXPLAIN-style evidence: both witness sites, with line numbers.
        assert "Pair.forward_path" in message
        assert "Pair.reverse_path" in message

    def test_consistent_order_clean(self):
        codes = _codes(self.TWO_LOCKS + """
            def first(self):
                with self._a:
                    with self._b:
                        pass

            def second(self):
                with self._a:
                    with self._b:
                        pass
        """)
        assert codes == []

    def test_cycle_through_call_graph(self):
        # Neither function nests the locks syntactically; the cycle only
        # exists through the call graph.
        diags = _diags(self.TWO_LOCKS + """
            def outer(self):
                with self._a:
                    self._grab_b()

            def _grab_b(self):
                with self._b:
                    pass

            def other(self):
                with self._b:
                    self._grab_a()

            def _grab_a(self):
                with self._a:
                    pass
        """)
        assert [d.code for d in diags] == ["R001"]
        assert "via" in diags[0].message  # the interprocedural witness chain


class TestR002InconsistentGuard:
    GUARDED = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = {}

            def put(self, key, value):
                with self._lock:
                    self.items[key] = value
    """

    def test_unguarded_read_flagged(self):
        diags = _diags(self.GUARDED + """
            def size(self):
                return len(self.items)
        """)
        assert [d.code for d in diags] == ["R002"]
        message = diags[0].message
        assert "Store.items" in message
        assert "Store._lock" in message
        assert "Store.size" in message  # the offending site is named

    def test_all_sites_guarded_clean(self):
        codes = _codes(self.GUARDED + """
            def size(self):
                with self._lock:
                    return len(self.items)
        """)
        assert codes == []

    def test_written_under_different_locks(self):
        diags = _diags("""
            import threading

            class Twin:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.count = 0

                def bump_a(self):
                    with self._a:
                        self.count += 1

                def bump_b(self):
                    with self._b:
                        self.count += 1
        """)
        assert [d.code for d in diags] == ["R002"]
        assert "different locks" in diags[0].message

    def test_locked_suffix_convention_assumed_held(self):
        # evict_locked promises its caller holds the class lock, so the
        # unguarded-looking write inside it is fine.
        codes = _codes(self.GUARDED + """
            def evict_locked(self):
                self.items.clear()
        """)
        assert codes == []

    def test_locks_pragma_declares_caller_held(self):
        codes = _codes(self.GUARDED + """
            def drain(self):  # locks: Store._lock
                self.items.clear()
        """)
        assert codes == []

    def test_init_only_helper_exempt(self):
        # _seed is only ever called from __init__, before the object is
        # shared; its unguarded write must not count.
        codes = _codes("""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = {}
                    self._seed()

                def _seed(self):
                    self.items["boot"] = True

                def put(self, key, value):
                    with self._lock:
                        self.items[key] = value
        """)
        assert codes == []

    def test_consistently_unguarded_out_of_scope(self):
        # No site ever takes a lock for this field: nothing to keep
        # consistent (L001 owns that judgement, not R002).
        codes = _codes("""
            import threading

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.note = None

                def set_note(self, value):
                    self.note = value

                def get_note(self):
                    return self.note
        """)
        assert codes == []


class TestR003BlockingUnderLock:
    APP = """
        import os
        import threading

        class App:
            def __init__(self):
                self._lock = threading.Lock()
                self.state = {}

            def chat(self, payload):
                with self._lock:
                    self.state["last"] = payload
    """

    def test_handler_lock_is_an_error(self):
        diags = _diags(self.APP + """
            def snapshot(self, fd):
                with self._lock:
                    os.fsync(fd)
        """, path="src/repro/serving/server.py")
        assert [d.code for d in diags] == ["R003"]
        assert diags[0].severity is Severity.ERROR
        message = diags[0].message
        assert "os.fsync" in message
        assert "App._lock" in message
        assert "request-handler path App.chat also acquires" in message

    def test_executor_target_is_reachable_from_async_entry(self):
        # The async front end hands blocking work to a pool with
        # run_in_executor; the target runs on the request path.
        diags = _diags("""
            import os
            import threading

            class Front:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._io = None

                async def _process_request(self, loop, fd):
                    await loop.run_in_executor(self._io, self._work, fd)

                def _work(self, fd):
                    with self._lock:
                        os.fsync(fd)
        """, path="src/repro/serving/front.py")
        assert [d.code for d in diags] == ["R003"]
        assert diags[0].severity is Severity.ERROR
        assert (
            "request-handler path Front._process_request also acquires"
            in diags[0].message
        )

    def test_route_table_handler_is_reachable_from_its_builder(self):
        # A server's dispatch calls its handlers through a route table;
        # the entry naming a handler counts as a call from the method
        # that builds the table.
        diags = _diags("""
            import os
            import threading

            class Route:
                def __init__(self, handler, on_loop=False):
                    self.handler = handler

            class Front:
                def __init__(self):
                    self._lock = threading.Lock()

                def _routes(self):
                    return {"POST /work": Route(self._work)}

                def _work(self, fd):
                    with self._lock:
                        os.fsync(fd)
        """, path="src/repro/serving/front.py")
        assert [d.code for d in diags] == ["R003"]
        assert diags[0].severity is Severity.ERROR
        assert (
            "request-handler path Front._routes also acquires"
            in diags[0].message
        )

    def test_non_handler_lock_is_a_warning(self):
        # Same shape outside the request path: still worth knowing, not
        # worth failing the build.
        diags = _diags(self.APP + """
            def snapshot(self, fd):
                with self._lock:
                    os.fsync(fd)
        """, path="src/repro/eval/mod.py")
        assert [d.code for d in diags] == ["R003"]
        assert diags[0].severity is Severity.WARNING

    def test_blocking_reached_through_call_graph(self):
        diags = _diags(self.APP + """
            def snapshot(self, fd):
                with self._lock:
                    self._flush(fd)

            def _flush(self, fd):
                os.fsync(fd)
        """, path="src/repro/serving/server.py")
        assert [d.code for d in diags] == ["R003"]
        assert "chain: App.snapshot" in diags[0].message

    def test_path_unlink_under_lock(self):
        diags = _diags(self.APP + """
            def drop(self, path):
                with self._lock:
                    path.unlink()
        """, path="src/repro/serving/server.py")
        assert [d.code for d in diags] == ["R003"]
        assert "blocking call (unlink)" in diags[0].message

    def test_blocking_outside_lock_clean(self):
        codes = _codes(self.APP + """
            def snapshot(self, fd):
                with self._lock:
                    payload = dict(self.state)
                os.fsync(fd)
        """, path="src/repro/serving/server.py")
        assert codes == []


class TestR004LockInAsyncHandler:
    def test_atexit_handler_acquiring_lock_flagged(self):
        diags = _diags("""
            import atexit
            import threading

            class Daemon:
                def __init__(self):
                    self._lock = threading.Lock()
                    atexit.register(self._shutdown)

                def _shutdown(self):
                    with self._lock:
                        pass
        """)
        assert [d.code for d in diags] == ["R004"]
        message = diags[0].message
        assert "atexit handler Daemon._shutdown" in message
        assert "Daemon._lock" in message

    def test_signal_handler_acquiring_lock_flagged(self):
        diags = _diags("""
            import signal
            import threading

            class Daemon:
                def __init__(self):
                    self._lock = threading.Lock()

                def install(self):
                    signal.signal(signal.SIGTERM, self._on_term)

                def _on_term(self, signum, frame):
                    with self._lock:
                        pass
        """)
        assert [d.code for d in diags] == ["R004"]
        assert "signal handler" in diags[0].message

    def test_lock_free_handler_clean(self):
        codes = _codes("""
            import atexit

            class Daemon:
                def __init__(self):
                    atexit.register(self._shutdown)

                def _shutdown(self):
                    print("bye")
        """)
        assert codes == []


class TestD001RenameWithoutFsync:
    def test_write_then_replace_without_fsync(self):
        diags = _diags("""
            import os

            def save(path):
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "w") as fh:
                    fh.write("payload")
                os.replace(tmp, path)
        """)
        assert [d.code for d in diags] == ["D001"]
        assert "no fsync in between" in diags[0].message

    def test_fsync_before_replace_clean(self):
        codes = _codes("""
            import os

            def save(path):
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "w") as fh:
                    fh.write("payload")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
        """)
        assert codes == []


class TestD002RenameWithoutTempdir:
    def test_mkstemp_without_dir_flagged(self):
        diags = _diags("""
            import os
            import tempfile

            def save(path):
                fd, tmp = tempfile.mkstemp()
                with os.fdopen(fd, "w") as fh:
                    fh.write("payload")
                    fh.flush()
                    os.fsync(fd)
                os.replace(tmp, path)
        """)
        assert [d.code for d in diags] == ["D002"]
        assert "target's directory" in diags[0].message

    def test_mkstemp_with_dir_clean(self):
        codes = _codes("""
            import os
            import tempfile

            def save(path, directory):
                fd, tmp = tempfile.mkstemp(dir=directory)
                with os.fdopen(fd, "w") as fh:
                    fh.write("payload")
                    fh.flush()
                    os.fsync(fd)
                os.replace(tmp, path)
        """)
        assert codes == []


class TestD003ReturnBeforeCommit:
    JOURNALED = """
        class Journal:
            def __init__(self):
                self.records = []

            def append(self, record):
                self.records.append(record)


        class Store:
            def __init__(self):
                self.journal = Journal()
    """

    def test_early_return_before_append(self):
        diags = _diags(self.JOURNALED + """
            def commit_turn(self, turn):
                if turn is None:
                    return None
                self.journal.append(turn)
                return turn
        """)
        assert [d.code for d in diags] == ["D003"]
        assert "before the journal-append commit point" in diags[0].message

    def test_commit_method_that_never_appends(self):
        diags = _diags(self.JOURNALED + """
            def commit_turn(self, turn):
                self.pending = turn
                return turn
        """)
        assert [d.code for d in diags] == ["D003"]
        assert "never reaches a journal append" in diags[0].message

    def test_append_before_return_clean(self):
        codes = _codes(self.JOURNALED + """
            def commit_turn(self, turn):
                self.journal.append(turn)
                return turn
        """)
        assert codes == []

    def test_append_through_same_class_helper_clean(self):
        codes = _codes(self.JOURNALED + """
            def commit_turn(self, turn):
                self._append(turn)
                return turn

            def _append(self, record):
                self.journal.append(record)
        """)
        assert codes == []

    def test_return_before_helper_commit_point(self):
        diags = _diags(self.JOURNALED + """
            def commit_turn(self, turn):
                if turn is None:
                    return None
                self._append(turn)
                return turn

            def _append(self, record):
                self.journal.append(record)
        """)
        assert [d.code for d in diags] == ["D003"]
        assert "commit point at line" in diags[0].message

    def test_non_commit_method_out_of_scope(self):
        codes = _codes(self.JOURNALED + """
            def maybe_store(self, turn):
                if turn is None:
                    return None
                self.journal.append(turn)
                return turn
        """)
        assert codes == []

    def test_custom_commit_prefix(self):
        config = RaceConfig(commit_prefix="persist_")
        codes = _codes(self.JOURNALED + """
            def persist_turn(self, turn):
                if turn is None:
                    return None
                self.journal.append(turn)
                return turn
        """, config=config)
        assert codes == ["D003"]


class TestEntryPoints:
    def test_check_race_paths_walks_directories(self, tmp_path):
        bad = tmp_path / "serving" / "mod.py"
        bad.parent.mkdir()
        bad.write_text(textwrap.dedent("""
            import os

            def save(path):
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "w") as fh:
                    fh.write("x")
                os.replace(tmp, path)
        """), encoding="utf-8")
        diags = check_race_paths([tmp_path])
        assert [d.code for d in diags] == ["D001"]
        assert diags[0].location.path == str(bad)

    def test_cross_module_lock_order(self):
        # The whole-program property: each module is individually
        # consistent; only the union of both orders deadlocks.
        shared = textwrap.dedent("""
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward_path(self):
                    with self._a:
                        with self._b:
                            pass
        """)
        other = textwrap.dedent("""
            from app.pair import Pair

            class User:
                def __init__(self):
                    self.pair = Pair()

                def reversed_path(self):
                    with self.pair._b:
                        with self.pair._a:
                            pass
        """)
        diags = check_race_sources({
            "app/pair.py": shared, "app/user.py": other,
        })
        assert "R001" in [d.code for d in diags]

    def test_graph_dot_lists_nodes_and_edges(self):
        model = build_model_from_sources({
            "src/repro/serving/mod.py": textwrap.dedent("""
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def nested(self):
                        with self._a:
                            with self._b:
                                pass
            """),
        })
        dot = analyze_model(model).graph_dot()
        assert dot.startswith("digraph lock_order")
        assert '"Pair._a"' in dot
        assert '"Pair._a" -> "Pair._b"' in dot


class TestShippedTree:
    def test_shipped_src_exits_zero_with_reviewed_baseline(
        self, monkeypatch, capsys
    ):
        # The acceptance gate: every remaining finding on the shipped
        # tree is a reviewed commit-point suppression, none unbaselined,
        # and no baseline entry is stale.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["race"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "suppressed by baseline" in out
        assert "matched nothing" not in out

    def test_request_entry_points_reach_worker_and_session_locks(self):
        # The router's and the app's requests are dispatched from the
        # route tables their _routes methods build, and their handlers
        # take these locks on executor threads; R003 must keep treating
        # them as handler-reachable.
        project = build_model([REPO_ROOT / "src" / "repro"])
        analysis = RaceAnalysis(project, RaceConfig())
        entries = {
            function.qualname: function
            for function in analysis.functions
            if function.name == "_routes"
        }
        router = entries["SessionRouter._routes"]
        app = entries["ConversationApp._routes"]
        assert "WorkerHandle.lock" in router.trans_acquires
        assert "SessionEntry.lock" in app.trans_acquires
        assert {"WorkerHandle.lock", "SessionEntry.lock"} <= set(
            analysis.handler_locks
        )

    def test_broadcast_coroutine_reaches_worker_lock_through_executor(self):
        # ``broadcast`` runs on the loop and hands one ``_forward_to``
        # per worker to ``run_in_executor``: the deferred call still
        # counts, so the fan-out's locks stay handler-reachable.
        project = build_model([REPO_ROOT / "src" / "repro"])
        analysis = RaceAnalysis(project, RaceConfig())
        functions = {f.qualname: f for f in analysis.functions}
        broadcast = functions["SessionRouter.broadcast"]
        assert "WorkerHandle.lock" in broadcast.trans_acquires
        assert analysis._is_handler_entry(broadcast)

    def test_lint_deep_folds_in_race(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--deep"]) == 0
        out = capsys.readouterr().out
        assert "repro lint --deep" in out
        assert "suppressed by baseline" in out

    def test_plain_lint_does_not_nag_about_race_entries(
        self, monkeypatch, capsys
    ):
        # The R/D baseline entries are out of scope for plain lint; their
        # unused-entry notes must not leak into its output.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "matched nothing" not in capsys.readouterr().out

    def test_graph_flag_dumps_dot(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["race", "--graph"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lock_order")
        # The durable store's commit protocol shows up as real edges.
        assert "SessionEntry.lock" in out

    def test_unparseable_module_fails_with_l000(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        empty = tmp_path / "baseline"
        empty.write_text("# empty\n", encoding="utf-8")
        assert main(["race", str(tmp_path), "--baseline", str(empty)]) == 1
        assert "L000" in capsys.readouterr().out

    def test_repo_baseline_has_no_notes_outside_its_tree(
        self, tmp_path, monkeypatch, capsys
    ):
        # Every repo baseline entry names a file under src/repro, which a
        # run over another directory can never match.
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        monkeypatch.chdir(REPO_ROOT)
        assert main(["race", str(tmp_path)]) == 0
        assert "matched nothing" not in capsys.readouterr().out

    def test_seeded_defect_fails_via_cli_json(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(textwrap.dedent("""
            import os

            def save(path):
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "w") as fh:
                    fh.write("x")
                os.replace(tmp, path)
        """), encoding="utf-8")
        empty = tmp_path / "baseline"
        empty.write_text("# empty\n", encoding="utf-8")
        assert main([
            "race", str(bad), "--baseline", str(empty), "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "D001"
        assert payload[0]["severity"] == "error"

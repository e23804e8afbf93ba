"""Unit tests for the lint rules L000–L004 (one fixture per code), run
over the whole-program model like every other codebase rule."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.model import build_model, build_model_from_sources
from repro.analysis.race import RaceConfig
from repro.analysis.runner import lint_model

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _codes(source, path="src/repro/serving/mod.py", config=None):
    model = build_model_from_sources({path: textwrap.dedent(source)})
    return [d.code for d in lint_model(model, config)]


class TestL000Syntax:
    def test_unparseable_module(self):
        assert _codes("def broken(:\n") == ["L000"]


class TestL001UnlockedMutation:
    LOCKED_CLASS = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = {}
                self.hits = 0
    """

    def test_mutation_outside_lock_flagged(self):
        codes = _codes(self.LOCKED_CLASS + """
            def put(self, key, value):
                self.items[key] = value
        """)
        assert codes == ["L001"]

    def test_mutation_under_lock_clean(self):
        codes = _codes(self.LOCKED_CLASS + """
            def put(self, key, value):
                with self._lock:
                    self.items[key] = value
                    self.hits += 1
        """)
        assert codes == []

    def test_init_exempt(self):
        assert _codes(self.LOCKED_CLASS) == []

    def test_locked_suffix_convention_exempt(self):
        codes = _codes(self.LOCKED_CLASS + """
            def evict_locked(self):
                self.hits += 1
        """)
        assert codes == []

    def test_augassign_and_delete_flagged(self):
        codes = _codes(self.LOCKED_CLASS + """
            def bump(self):
                self.hits += 1

            def drop(self, key):
                del self.items[key]
        """)
        assert codes == ["L001", "L001"]

    def test_local_variables_ignored(self):
        codes = _codes(self.LOCKED_CLASS + """
            def compute(self):
                total = 0
                total += 1
                return total
        """)
        assert codes == []

    def test_class_without_lock_ignored(self):
        codes = _codes("""
            class Plain:
                def __init__(self):
                    self.items = {}

                def put(self, key, value):
                    self.items[key] = value
        """)
        assert codes == []

    def test_locks_pragma_counts_as_held(self):
        # The model's convention: a `# locks:` pragma on the def line
        # declares the lock its caller holds.
        codes = _codes(self.LOCKED_CLASS + """
            def evict(self):  # locks: Store._lock
                self.hits += 1
        """)
        assert codes == []

    def test_nested_function_not_walked(self):
        # A nested def runs later, possibly under the lock of its caller;
        # the checker never guesses about it.
        codes = _codes(self.LOCKED_CLASS + """
            def deferred(self):
                def inner():
                    self.hits += 1
                return inner
        """)
        assert codes == []


class TestL002DirectClock:
    def test_direct_time_call_in_clock_module(self):
        codes = _codes("""
            import time

            def touch(store, clock=time.monotonic):
                store.last = time.time()
        """)
        assert codes == ["L002"]

    def test_default_argument_expression_exempt(self):
        codes = _codes("""
            import time

            def touch(store, clock=time.monotonic):
                store.last = clock()
        """)
        assert codes == []

    def test_module_without_clock_param_out_of_scope(self):
        codes = _codes("""
            import time

            def stamp():
                return time.time()
        """)
        assert codes == []

    def test_datetime_now_flagged(self):
        codes = _codes("""
            import datetime

            def log(clock):
                return datetime.datetime.now()
        """)
        assert codes == ["L002"]


class TestL003SwallowedException:
    def test_except_exception_pass_flagged(self):
        codes = _codes("""
            def load():
                try:
                    return 1
                except Exception:
                    pass
        """)
        assert codes == ["L003"]

    def test_bare_except_flagged(self):
        codes = _codes("""
            def load():
                try:
                    return 1
                except:
                    return None
        """)
        assert codes == ["L003"]

    def test_using_the_exception_is_fine(self):
        codes = _codes("""
            def load(log):
                try:
                    return 1
                except Exception as exc:
                    log.warning("failed: %s", exc)
        """)
        assert codes == []

    def test_reraise_is_fine(self):
        codes = _codes("""
            def load():
                try:
                    return 1
                except Exception:
                    raise
        """)
        assert codes == []

    def test_nested_function_handler_flagged(self):
        source = textwrap.dedent("""
            def outer():
                def inner():
                    try:
                        return 1
                    except Exception:
                        pass
                return inner
        """)
        diags = lint_model(build_model_from_sources({"mod.py": source}))
        assert [(d.code, d.location.symbol) for d in diags] == [
            ("L003", "outer.inner")
        ]

    def test_narrow_exception_out_of_scope(self):
        codes = _codes("""
            def load():
                try:
                    return 1
                except (KeyError, ValueError):
                    return None
        """)
        assert codes == []


class TestL004BlockingIO:
    def test_open_in_http_handler_do_method(self):
        codes = _codes("""
            from http.server import BaseHTTPRequestHandler

            class Handler(BaseHTTPRequestHandler):
                def do_GET(self):
                    with open("f.txt") as fh:
                        return fh.read()
        """, path="src/other/web.py")
        assert codes == ["L004"]

    def test_configured_handler_method_in_serving_module(self):
        codes = _codes("""
            class App:
                def chat(self, payload):
                    import json
                    with open("log.json", "a") as fh:
                        json.dump(payload, fh)
        """, path="src/repro/serving/server.py")
        assert codes == ["L004", "L004"]

    @pytest.mark.parametrize(
        "path", ["src/repro/serving/aio.py", "src/repro/persistence/router.py"]
    )
    def test_async_request_entry_point_flagged(self, path):
        # Requests enter both the app's and the router's request paths
        # through the asyncio front end's _process_request.
        codes = _codes("""
            class Front:
                async def _process_request(self, request, body, writer):
                    with open("log.json", "a") as fh:
                        fh.write("x")
        """, path=path)
        assert codes == ["L004"]

    def test_mkdir_and_unlink_flagged(self):
        codes = _codes("""
            class App:
                def health(self, path):
                    path.mkdir(exist_ok=True)
                    path.unlink()
        """, path="src/repro/serving/server.py")
        assert codes == ["L004", "L004"]

    def test_same_method_outside_serving_is_fine(self):
        codes = _codes("""
            class App:
                def chat(self, payload):
                    with open("log.json", "a") as fh:
                        fh.write("x")
        """, path="src/repro/eval/sim.py")
        assert codes == []

    def test_non_handler_method_in_serving_is_fine(self):
        codes = _codes("""
            class App:
                def flush_log(self):
                    with open("log.json", "a") as fh:
                        fh.write("x")
        """, path="src/repro/serving/server.py")
        assert codes == []

    def test_forward_in_persistence_module_flagged(self):
        # Regression: the router's forward path is a request handler too;
        # blocking file I/O there stalls every session pinned to a worker.
        codes = _codes("""
            class SessionRouter:
                def forward(self, session_id, payload):
                    with open("spool.json", "a") as fh:
                        fh.write(payload)
        """, path="src/repro/persistence/router.py")
        assert codes == ["L004"]

    def test_non_handler_method_in_persistence_is_fine(self):
        codes = _codes("""
            class SessionRouter:
                def spool(self, payload):
                    with open("spool.json", "a") as fh:
                        fh.write(payload)
        """, path="src/repro/persistence/router.py")
        assert codes == []

    def test_path_methods_flagged(self):
        codes = _codes("""
            class App:
                def health(self, path):
                    return path.read_text()
        """, path="src/repro/serving/server.py")
        assert codes == ["L004"]


class TestEntryPoints:
    def test_lint_paths_walks_directories(self, tmp_path):
        bad = tmp_path / "serving" / "mod.py"
        bad.parent.mkdir()
        bad.write_text(
            "def f():\n    try:\n        pass\n    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        diags = lint_model(build_model([tmp_path]))
        assert [d.code for d in diags] == ["L003"]
        assert diags[0].location.path == str(bad)

    def test_custom_config_handler_methods(self):
        config = RaceConfig(handler_methods=("serve_it",))
        codes = _codes("""
            class App:
                def serve_it(self):
                    return open("f")
        """, path="src/repro/serving/app.py", config=config)
        assert codes == ["L004"]

    def test_repro_source_tree_is_clean(self):
        # Satellite guarantee: the shipped code has no non-baselined
        # findings (the repo baseline is empty or absent by design).
        diags = lint_model(build_model([REPO_SRC]))
        assert diags == []

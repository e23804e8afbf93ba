"""Unit tests for the replay-determinism & exception-flow analyzer (one
seeded-defect fixture + clean twin per code), plus integration tests that
the shipped tree is clean modulo the reviewed baseline."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.diagnostics import Severity
from repro.analysis.model import build_model_from_sources
from repro.analysis.purity import (
    PurityConfig,
    analyze_purity_model,
    check_purity_paths,
    check_purity_sources,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Minimal pipeline scaffolding mirroring engine/pipeline.py: a Stage
#: base plus the project exception the serving handler catches.
SCAFFOLD = """
    class EngineError(Exception):
        pass

    class KBError(EngineError):
        pass

    class Stage:
        def run(self, state):
            raise NotImplementedError
"""


def _src(source):
    return textwrap.dedent(SCAFFOLD) + textwrap.dedent(source)


def _diags(source, path="src/repro/engine/mod.py", config=None):
    return check_purity_sources({path: _src(source)}, config)


def _codes(source, path="src/repro/engine/mod.py", config=None):
    return [d.code for d in _diags(source, path, config)]


class TestP001Nondeterminism:
    def test_wall_clock_through_helper_flagged(self):
        diags = _diags("""
            import time

            class Timed(Stage):
                def run(self, state):
                    return stamp()

            def stamp():
                return time.time()
        """)
        assert [d.code for d in diags] == ["P001"]
        assert diags[0].severity is Severity.ERROR
        assert "time.time" in diags[0].message
        # The witness chain walks stage -> helper -> offending call.
        assert "Timed.run" in diags[0].message
        assert diags[0].chain and diags[0].chain[-1].startswith("stamp:")

    def test_random_flagged(self):
        assert _codes("""
            import random

            class Sampler(Stage):
                def run(self, state):
                    return random.choice(state)
        """) == ["P001"]

    def test_injected_clock_clean(self):
        # The house convention (L002): take the clock as a parameter.
        assert _codes("""
            import time

            class Timed(Stage):
                def __init__(self, clock=time.perf_counter):
                    self._clock = clock

                def run(self, state):
                    return self._clock()
        """) == []

    def test_clock_off_turn_path_clean(self):
        # Nondeterminism is fine outside the stage-reachable set.
        assert _codes("""
            import time

            def build_report():
                return time.time()
        """) == []


class TestP002OrderEscape:
    def test_set_order_returned_flagged(self):
        diags = _diags("""
            class Enumerate(Stage):
                def run(self, state):
                    names = {"b", "a"}
                    return list(names)
        """)
        assert [d.code for d in diags] == ["P002"]
        assert "names" in diags[0].message
        assert "str-hash randomization" in diags[0].message

    def test_set_comprehension_joined_flagged(self):
        assert _codes("""
            class Render(Stage):
                def run(self, state):
                    return ", ".join({x.name for x in state})
        """) == ["P002"]

    def test_sorted_escape_clean(self):
        assert _codes("""
            class Enumerate(Stage):
                def run(self, state):
                    names = {"b", "a"}
                    return sorted(names)
        """) == []

    def test_membership_test_clean(self):
        # Using a set for membership never exposes its order.
        assert _codes("""
            class Filter(Stage):
                def run(self, state):
                    allowed = {"a", "b"}
                    return [x for x in state if x in allowed]
        """) == []


class TestP003HiddenState:
    def test_module_global_write_flagged(self):
        diags = _diags("""
            CACHE = {}

            class Memo(Stage):
                def run(self, state):
                    CACHE[state] = 1
                    return None
        """)
        assert [d.code for d in diags] == ["P003"]
        assert "CACHE" in diags[0].message
        assert "snapshot" in diags[0].message.lower()

    def test_state_module_field_write_flagged(self):
        # Paths become dotted module names, so they carry no src/ prefix.
        sources = {
            "repro/kbdemo/store.py": textwrap.dedent("""
                class Store:
                    def __init__(self):
                        self.rows = []

                    def remember(self, row):
                        self.rows.append(row)
            """),
            "repro/engine/mod.py": _src("""
                from repro.kbdemo.store import Store

                class Writer(Stage):
                    def __init__(self):
                        self.store = Store()

                    def run(self, state):
                        self.store.remember(state)
                        return None
            """),
        }
        config = PurityConfig(state_modules=("repro.kbdemo",))
        diags = check_purity_sources(sources, config)
        assert [d.code for d in diags] == ["P003"]
        assert "Store.rows" in diags[0].message

    def test_init_time_construction_clean(self):
        # __init__ writes build the object; they are not hidden state.
        config = PurityConfig(state_modules=("repro",))
        assert _codes("""
            class Built(Stage):
                def __init__(self):
                    self.rows = []

                def run(self, state):
                    return len(self.rows)
        """, config=config) == []

    def test_local_mutation_clean(self):
        assert _codes("""
            class Local(Stage):
                def run(self, state):
                    out = {}
                    out[state] = 1
                    return out
        """) == []


class TestP004EnvironmentDependence:
    def test_environ_read_flagged(self):
        diags = _diags("""
            import os

            class Env(Stage):
                def run(self, state):
                    return os.environ.get("MODE")
        """)
        assert [d.code for d in diags] == ["P004"]
        assert "os.environ" in diags[0].message

    def test_unsorted_listdir_flagged(self):
        assert _codes("""
            import os

            class Files(Stage):
                def run(self, state):
                    return os.listdir(state)
        """) == ["P004"]

    def test_sorted_listdir_still_env_dependent(self):
        # sorted() fixes the *order* nondeterminism, but the turn still
        # depends on filesystem contents replay cannot reproduce — the
        # lint's os.listdir-without-sorted refinement applies to P001's
        # order concern, not to P004 environment dependence.
        assert _codes("""
            import os

            def snapshot_names(root):
                return sorted(os.listdir(root))
        """) == []


class TestX001StageExceptionEscape:
    def test_builtin_escape_flagged(self):
        diags = _diags("""
            class Risky(Stage):
                def run(self, state):
                    return helper(state)

            def helper(state):
                if not state:
                    raise ValueError("empty")
                return state
        """)
        assert [d.code for d in diags] == ["X001"]
        assert "ValueError" in diags[0].message
        assert "Risky.run" in diags[0].message
        # Anchored at the origin raise, not at the stage.
        assert diags[0].location.symbol == "helper"
        assert diags[0].chain[-1].startswith("helper:")

    def test_engine_error_subclass_clean(self):
        # KBError subclasses EngineError: the pipeline handler catches it.
        assert _codes("""
            class Safe(Stage):
                def run(self, state):
                    raise KBError("handled upstream")
        """) == []

    def test_caught_at_stage_clean(self):
        assert _codes("""
            class Caught(Stage):
                def run(self, state):
                    try:
                        return helper(state)
                    except ValueError:
                        return None

            def helper(state):
                raise ValueError("empty")
        """) == []

    def test_abstract_stub_convention_clean(self):
        # The Stage base's NotImplementedError stub must not fire.
        assert _codes("""
            class Concrete(Stage):
                def run(self, state):
                    return state
        """) == []


class TestX002DeadExceptClause:
    def test_shadowed_handler_flagged(self):
        diags = _diags("""
            def raiser():
                raise KBError("kb")

            def catcher():
                try:
                    raiser()
                except KBError:
                    return 1
                except EngineError:
                    return 2
        """)
        assert [d.code for d in diags] == ["X002"]
        assert diags[0].severity is Severity.WARNING
        assert "except EngineError is dead" in diags[0].message

    def test_unraised_type_flagged(self):
        assert _codes("""
            def raiser():
                raise ValueError("x")

            def catcher():
                try:
                    raiser()
                except KBError:
                    return 1
                except ValueError:
                    return 2
        """) == ["X002"]

    def test_live_handler_clean(self):
        assert _codes("""
            def raiser():
                raise KBError("kb")

            def catcher():
                try:
                    raiser()
                except EngineError:
                    return 1
        """) == []

    def test_unresolved_call_is_not_provable(self):
        # A local callable could raise anything: no X002 claim.
        assert _codes("""
            def catcher(fn):
                try:
                    fn()
                except KBError:
                    return 1
        """) == []


class TestX003OverBroadCatch:
    def test_bare_except_flagged(self):
        diags = _diags("""
            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
        """)
        assert [d.code for d in diags] == ["X003"]
        assert "KeyboardInterrupt" in diags[0].message

    def test_base_exception_flagged(self):
        assert _codes("""
            def swallow(fn):
                try:
                    return fn()
                except BaseException:
                    return None
        """) == ["X003"]

    def test_reraising_broad_catch_clean(self):
        assert _codes("""
            def cleanup(fn):
                try:
                    return fn()
                except BaseException:
                    log = True
                    raise
        """) == []

    def test_nested_function_flagged(self):
        diags = _diags("""
            def outer(fn):
                def inner():
                    try:
                        return fn()
                    except:
                        return None
                return inner
        """)
        assert [(d.code, d.location.symbol) for d in diags] == [
            ("X003", "outer.inner")
        ]

    def test_plain_exception_clean(self):
        # `except Exception` does not swallow KeyboardInterrupt.
        assert _codes("""
            def tolerant(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """) == []


class TestWitnessChains:
    def test_cross_module_chain(self):
        sources = {
            "repro/engine/stagemod.py": _src("""
                from repro.engine.middle import relay

                class Deep(Stage):
                    def run(self, state):
                        return relay(state)
            """),
            "repro/engine/middle.py": textwrap.dedent("""
                from repro.engine.leaf import sample

                def relay(state):
                    return sample(state)
            """),
            "repro/engine/leaf.py": textwrap.dedent("""
                import random

                def sample(state):
                    return random.random()
            """),
        }
        diags = check_purity_sources(sources)
        assert [d.code for d in diags] == ["P001"]
        # The chain crosses all three modules, stage down to the call.
        chain = diags[0].chain
        assert chain[0].startswith("Deep.run:")
        assert chain[1].startswith("relay:")
        assert chain[2].startswith("sample:")
        assert "Deep.run" in diags[0].message
        assert diags[0].location.path == "repro/engine/leaf.py"

    def test_chain_in_json_payload(self):
        diags = _diags("""
            import time

            class Timed(Stage):
                def run(self, state):
                    return helper()

            def helper():
                return time.time()
        """)
        payload = diags[0].to_dict()
        assert payload["chain"] == list(diags[0].chain)
        assert all(":" in step for step in payload["chain"])


class TestAnalysisSurface:
    def test_analyze_model_exposes_turn_path(self):
        model = build_model_from_sources({
            "src/repro/engine/mod.py": _src("""
                class One(Stage):
                    def run(self, state):
                        return helper(state)

                def helper(state):
                    return state

                def unreachable():
                    return None
            """),
        })
        analysis = analyze_purity_model(model)
        names = {fn.qualname for fn, _chain in analysis.reach.values()}
        assert "One.run" in names
        assert "helper" in names
        assert "unreachable" not in names

    def test_check_paths_entry_point(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            _src("""
                import uuid

                class Tagger(Stage):
                    def run(self, state):
                        return uuid.uuid4()
            """),
            encoding="utf-8",
        )
        assert [d.code for d in check_purity_paths([tmp_path])] == ["P001"]


class TestShippedTree:
    def test_shipped_src_exits_zero_with_reviewed_baseline(
        self, monkeypatch, capsys
    ):
        # The acceptance gate: every remaining finding on the shipped
        # tree is a reviewed replay-transparent suppression, none
        # unbaselined, and no baseline entry is stale.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["purity"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "suppressed by baseline" in out
        assert "matched nothing" not in out

    def test_lint_deep_folds_in_purity(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--deep"]) == 0
        out = capsys.readouterr().out
        assert "repro lint --deep" in out
        assert "suppressed by baseline" in out

    def test_plain_lint_does_not_nag_about_purity_entries(
        self, monkeypatch, capsys
    ):
        # The P/X baseline entries are out of scope for plain lint.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "matched nothing" not in capsys.readouterr().out

    def test_unparseable_module_fails_with_l000(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        empty = tmp_path / "baseline"
        empty.write_text("# empty\n", encoding="utf-8")
        assert main(["purity", str(tmp_path), "--baseline", str(empty)]) == 1
        assert "L000" in capsys.readouterr().out

    def test_seeded_defect_fails_via_cli_json_with_chain(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "mod.py"
        bad.write_text(
            _src("""
                import time

                class Timed(Stage):
                    def run(self, state):
                        return stamp()

                def stamp():
                    return time.time()
            """),
            encoding="utf-8",
        )
        empty = tmp_path / "baseline"
        empty.write_text("# empty\n", encoding="utf-8")
        assert main([
            "purity", str(bad), "--baseline", str(empty), "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "P001"
        assert payload[0]["severity"] == "error"
        # The witness chain rides in the JSON payload.
        assert payload[0]["chain"][0].startswith("Timed.run:")
        assert payload[0]["chain"][-1].startswith("stamp:")

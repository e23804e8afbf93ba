"""Unit tests for the baseline suppression file."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
from repro.analysis.diagnostics import Diagnostic, Location, Severity


def _diag(code="L003", path="src/repro/x.py", symbol=None):
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message="m",
        location=Location(path, symbol=symbol),
        rule="r",
    )


class TestParse:
    def test_comments_and_blanks_ignored(self):
        baseline = Baseline.parse("# header\n\n   \nL003 a.py  # why\n")
        assert len(baseline.entries) == 1
        entry = baseline.entries[0]
        assert entry.code == "L003"
        assert entry.location_pattern == "a.py"
        assert entry.comment == "why"

    def test_malformed_line_raises(self):
        with pytest.raises(BaselineError, match="line 1"):
            Baseline.parse("L003\n")

    def test_too_many_fields_raises(self):
        with pytest.raises(BaselineError):
            Baseline.parse("L003 a.py extra-field\n")


class TestMatching:
    def test_exact_code_and_path(self):
        baseline = Baseline.parse("L003 src/repro/x.py  # ok\n")
        assert baseline.suppresses(_diag())
        assert not baseline.suppresses(_diag(code="L001"))
        assert not baseline.suppresses(_diag(path="src/repro/y.py"))

    def test_glob_pattern(self):
        baseline = Baseline.parse("C010 space:intent:*  # hand-served\n")
        hit = _diag(code="C010", path="space:intent", symbol="Special Intent")
        assert hit.location.canonical() == "space:intent::Special Intent"
        assert baseline.suppresses(hit)

    def test_code_wildcard(self):
        baseline = Baseline.parse("* legacy/*.py  # grandfathered\n")
        assert baseline.suppresses(_diag(code="L001", path="legacy/a.py"))
        assert baseline.suppresses(_diag(code="C004", path="legacy/b.py"))
        assert not baseline.suppresses(_diag(path="src/new.py"))

    def test_symbol_matching(self):
        baseline = Baseline.parse("L003 a.py::Cls.method  # reviewed\n")
        assert baseline.suppresses(_diag(path="a.py", symbol="Cls.method"))
        assert not baseline.suppresses(_diag(path="a.py", symbol="Cls.other"))


class TestApply:
    def test_apply_splits(self):
        baseline = Baseline.parse("L003 a.py  # ok\n")
        kept, gone = baseline.apply([_diag(path="a.py"), _diag(path="b.py")])
        assert [d.location.path for d in kept] == ["b.py"]
        assert [d.location.path for d in gone] == ["a.py"]

    def test_unused_entries(self):
        baseline = Baseline.parse("L003 a.py  # ok\nL003 never.py  # stale\n")
        unused = baseline.unused_entries([_diag(path="a.py")])
        assert [e.location_pattern for e in unused] == ["never.py"]


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "base.txt"
        path.write_text("L003 a.py  # ok\n", encoding="utf-8")
        baseline = Baseline.load(path)
        assert baseline.path == path
        assert len(baseline.entries) == 1

    def test_discover_missing_is_empty(self, tmp_path):
        baseline = Baseline.discover(tmp_path)
        assert baseline.entries == []

    def test_discover_finds_default_name(self, tmp_path):
        (tmp_path / ".repro-baseline").write_text(
            "L003 a.py  # ok\n", encoding="utf-8"
        )
        baseline = Baseline.discover(tmp_path)
        assert len(baseline.entries) == 1


class TestBadBaselineOption:
    """``--baseline`` naming an unreadable or malformed file ends every
    analysis command with one error line, before any analysis runs."""

    COMMANDS = ["check", "lint", "race", "purity", "audit", "baseline"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file_exits_with_one_line(self, command, tmp_path):
        missing = tmp_path / "nonexistent"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--baseline", str(missing)])
        message = str(excinfo.value.code)
        assert message.startswith("--baseline: ")
        assert str(missing) in message
        assert "\n" not in message

    def test_malformed_file_exits_with_one_line(self, tmp_path):
        path = tmp_path / "base.txt"
        path.write_text("L003\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="--baseline: baseline line 1"):
            main(["check", "--baseline", str(path)])

    def test_unwritable_update_target_exits_with_one_line(
        self, tmp_path, monkeypatch
    ):
        import repro.analysis.runner as runner

        monkeypatch.setattr(runner, "_all_diagnostics", lambda args: [])
        target = tmp_path / "no-such-dir" / "baseline"
        with pytest.raises(SystemExit, match="--baseline: .*no-such-dir"):
            main(["baseline", "--update", "--baseline", str(target)])

    def test_no_traceback_from_the_command_line(self):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check",
             "--baseline", "/nonexistent"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert result.stderr.strip().count("\n") == 0
        assert result.stderr.startswith("--baseline: ")

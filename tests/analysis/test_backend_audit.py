"""`repro check/audit --kb PATH`: validating against a ``kb.db`` file.

The toolchain must be able to audit a KB file, such as the one
``repro export --sqlite`` writes, and catch a file that drifted from the
conversation space.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.kb.io import save_database, save_sqlite
from repro.bootstrap import space_to_dict
from tests.serving.conftest import build_toy_agent


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """Exported toy space + CSV KB + the same KB as kb.db."""
    out = tmp_path_factory.mktemp("toy-audit")
    agent = build_toy_agent()
    (out / "space.json").write_text(
        json.dumps(space_to_dict(agent.space)), encoding="utf-8"
    )
    save_database(agent.database, out / "kb")
    save_sqlite(agent.database, out / "kb.db")
    return out


def check_args(artifacts: Path, *extra: str) -> list[str]:
    return [
        "check",
        "--space", str(artifacts / "space.json"),
        "--data", str(artifacts / "kb"),
        *extra,
    ]


class TestBackendSelection:
    def test_memory_default_passes(self, artifacts):
        assert main(check_args(artifacts)) == 0

    def test_sqlite_round_trip_passes(self, artifacts):
        assert main(check_args(artifacts, "--kb", str(artifacts / "kb.db"))) == 0

    def test_exported_kb_db_passes(self, tmp_path, capsys):
        # The shipped MDX space against the kb.db `repro export` writes.
        assert main(["export", "--sqlite", "--out", str(tmp_path)]) == 0
        assert main([
            "check", "--deep", "--kb", str(tmp_path / "kb.db"),
        ]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_audit_accepts_backend_too(self, artifacts):
        assert main([
            "audit",
            "--space", str(artifacts / "space.json"),
            "--data", str(artifacts / "kb"),
            "--kb", str(artifacts / "kb.db"),
        ]) == 0

    def test_non_sqlite_kb_exits_cleanly(self, artifacts):
        with pytest.raises(SystemExit, match="--kb: could not read"):
            main(check_args(artifacts, "--kb", str(artifacts / "space.json")))


class TestDriftDetection:
    def test_drifted_replica_fails_check(self, artifacts, tmp_path):
        # A kb.db missing a table the space queries: checking the CSV KB
        # passes, checking the drifted file must not.
        from repro.kb import Database

        source = build_toy_agent().database
        broken = Database(source.name)
        for table in source.tables():
            if table.name == "dosage":
                continue
            broken.create_table(table.schema)
            for row in table.rows:
                broken.table(table.name).insert(list(row))
        drifted = save_sqlite(broken, tmp_path / "drifted.db")

        assert main(check_args(artifacts)) == 0
        assert main(check_args(artifacts, "--kb", str(drifted))) == 1

    def test_missing_kb_db_exits_cleanly(self, artifacts, tmp_path):
        with pytest.raises(SystemExit, match="no SQLite KB file"):
            main(check_args(artifacts, "--kb", str(tmp_path / "absent.db")))

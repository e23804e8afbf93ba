"""`repro check/audit --artifacts DIR`: validating an export's ``kb.db``.

The toolchain must audit the space and KB file an artifact directory
holds, as a server loading it would serve them, and catch a KB that
drifted from the space.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.artifacts import write_artifacts
from repro.cli import main
from tests.conftest import reseal
from tests.serving.conftest import build_toy_agent


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """The toy agent's artifact directory."""
    return write_artifacts(
        tmp_path_factory.mktemp("toy-audit"), build_toy_agent()
    )


class TestBackendSelection:
    def test_memory_default_passes(self):
        # Without --artifacts: the shipped MDX, built in memory.
        assert main(["check"]) == 0

    def test_sqlite_round_trip_passes(self, artifacts):
        assert main(["check", "--artifacts", str(artifacts)]) == 0

    def test_exported_kb_db_passes(self, mdx_artifacts, capsys):
        # The shipped MDX space against the kb.db `repro export` writes.
        assert main(["check", "--deep", "--artifacts", str(mdx_artifacts)]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_audit_accepts_backend_too(self, artifacts):
        assert main(["audit", "--artifacts", str(artifacts)]) == 0

    def test_non_sqlite_kb_exits_cleanly(self, artifacts, tmp_path):
        # A kb.db the manifest vouches for that is still no SQLite file.
        copy = write_artifacts(tmp_path, build_toy_agent())
        (copy / "kb.db").write_text("drug_id,name\n1,Aspirin\n")
        reseal(copy)
        with pytest.raises(SystemExit, match="--artifacts: could not read"):
            main(["check", "--artifacts", str(copy)])


class TestDriftDetection:
    def test_drifted_replica_fails_check(self, artifacts, tmp_path, capsys):
        # A consistent directory whose KB lacks a table the space
        # queries: it passes its digests, and the check catches it.
        from repro.kb import Database

        agent = build_toy_agent()
        source = agent.database.backend
        broken = Database(source.name)
        for table in source.tables():
            if table.name == "dosage":
                continue
            broken.create_table(table.schema)
            broken.insert_many(table.name, table.rows)
        agent.database.swap(broken)
        drifted = write_artifacts(tmp_path, agent)

        assert main(["check", "--artifacts", str(artifacts)]) == 0
        capsys.readouterr()
        assert main(["check", "--artifacts", str(drifted)]) == 1
        assert (
            "C002 space:template (Dosage of Drug): template SQL references "
            "unknown table 'dosage'"
        ) in capsys.readouterr().out

    def test_missing_kb_db_exits_cleanly(self, tmp_path):
        copy = write_artifacts(tmp_path, build_toy_agent())
        (copy / "kb.db").unlink()
        with pytest.raises(SystemExit, match=r"kb\.db is missing"):
            main(["check", "--artifacts", str(copy)])

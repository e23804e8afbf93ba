"""Integration tests: the shipped medical KB passes `repro check`, seeded
defects fail it, and the CLI wires both layers with correct exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.space_checker import check_space
from repro.cli import main
from repro.dialogue.logic_table import DialogueLogicTable
from repro.medical import build_mdx_space
from repro.medical.build import rename_to_paper_intents

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def mdx_checked_space(mdx_small_db, mdx_small_ontology):
    """A fresh small-MDX space with the paper intent names applied,
    exactly mirroring what ``repro check`` (and ``repro serve``) build."""
    space = build_mdx_space(mdx_small_db, mdx_small_ontology)
    rename_to_paper_intents(space)
    return space


class TestMedicalKB:
    def test_shipped_space_has_zero_errors(self, mdx_checked_space):
        diags = check_space(mdx_checked_space)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors == []

    def test_shipped_space_has_zero_findings(self, mdx_checked_space):
        assert check_space(mdx_checked_space) == []

    def test_renamed_intents_keep_their_templates_consistent(
        self, mdx_checked_space
    ):
        # Regression: rename_intent used to leave the frozen template's
        # intent_name stale, which C011 flags.
        for intent in mdx_checked_space.intents:
            for template in intent.custom_templates:
                assert template.intent_name == intent.name

    def test_seeded_defect_fails_and_names_the_intent(self, mdx_checked_space):
        # The ISSUE acceptance scenario: an SME renames a concept in one
        # logic-table row; check must fail pointing at that intent.
        table = DialogueLogicTable.from_space(mdx_checked_space)
        row = next(r for r in table.rows if r.required_entities)
        row.required_entities[0] = "Renamed Concept"
        diags = check_space(mdx_checked_space, logic_table=table)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors
        assert any(d.location.symbol == row.intent_name for d in errors)
        assert any("Renamed Concept" in d.message for d in errors)


class TestCLI:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(REPO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_lint_defect_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def f():\n    try:\n        pass\n    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        assert main(["lint", str(bad)]) == 1
        assert "L003" in capsys.readouterr().out

    def test_lint_baseline_suppresses(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def f():\n    try:\n        pass\n    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline"
        baseline.write_text(f"L003 {bad}::f  # reviewed\n", encoding="utf-8")
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_lint_unused_baseline_entry_noted(self, tmp_path, capsys):
        clean = tmp_path / "mod.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline"
        baseline.write_text("L003 never.py  # stale\n", encoding="utf-8")
        assert main(["lint", str(clean), "--baseline", str(baseline)]) == 0
        assert "matched nothing" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def f():\n    try:\n        pass\n    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "L003"
        assert payload[0]["severity"] == "error"

    def test_lint_missing_path_aborts(self):
        with pytest.raises(SystemExit):
            main(["lint", "definitely/not/here"])

    def test_check_full_mdx_exits_zero_under_budget(self, capsys):
        # The ISSUE acceptance bound: the full medical KB validates in
        # under five seconds with no findings.
        import time

        started = time.perf_counter()
        assert main(["check"]) == 0
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert elapsed < 5.0

    def test_strict_turns_warnings_into_failures(self, tmp_path):
        # A file with only a warning-level finding does not exist for the
        # linter (all L-codes are errors), so exercise --strict plumbing
        # through a clean run: exit stays 0 either way.
        clean = tmp_path / "mod.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(clean), "--strict"]) == 0


def _export_toy_space(tmp_path, mutate=None):
    """Build the toy space, optionally seed a defect, and write the
    agent built on it as an artifact directory."""
    from repro.artifacts import write_artifacts
    from repro.bootstrap import bootstrap_conversation_space
    from repro.engine import ConversationAgent
    from repro.ontology import generate_ontology
    from tests.conftest import make_toy_database

    database = make_toy_database()
    ontology = generate_ontology(database, "toy")
    space = bootstrap_conversation_space(
        ontology, database, key_concepts=["Drug", "Indication"]
    )
    if mutate is not None:
        mutate(space)
    artifacts = write_artifacts(
        tmp_path / "artifacts", ConversationAgent.build(space, database)
    )
    empty_baseline = tmp_path / "baseline"
    empty_baseline.write_text("# empty\n", encoding="utf-8")
    return artifacts, empty_baseline


class TestAuditCLI:
    def test_audit_full_mdx_exits_zero_under_budget(self, capsys):
        # The ISSUE acceptance bound: the shipped MDX space passes the
        # semantic audit with zero unbaselined findings, quickly.
        import time

        started = time.perf_counter()
        assert main(["audit"]) == 0
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        # The one intentional cross-entity synonym (contraindication).
        assert "suppressed by baseline" in out
        assert "matched nothing" not in out
        assert elapsed < 5.0

    def test_check_deep_folds_in_audit(self, capsys):
        assert main(["check", "--deep"]) == 0
        out = capsys.readouterr().out
        assert "repro check --deep" in out
        assert "suppressed by baseline" in out

    def test_check_deep_builds_and_binds_once(self, monkeypatch, capsys):
        # Both checker layers read one artifact build, in which each
        # distinct template SQL is parsed exactly once.
        from repro.analysis import space_checker

        builds, parses = [], []
        real_build = space_checker.build_artifacts
        real_parse = space_checker.parse_sql

        def build(*args, **kwargs):
            builds.append(real_build(*args, **kwargs))
            return builds[-1]

        def parse(sql):
            parses.append(sql)
            return real_parse(sql)

        monkeypatch.setattr(space_checker, "build_artifacts", build)
        monkeypatch.setattr(space_checker, "parse_sql", parse)
        assert main(["check", "--deep"]) == 0
        assert len(builds) == 1
        assert sorted(parses) == sorted(builds[0].queries)
        assert len(parses) == len(set(parses))

    def test_plain_check_does_not_nag_about_audit_baseline(self, capsys):
        # The A003 entry is out of scope for the structural check; its
        # unused-entry note must not leak into `repro check` output.
        assert main(["check"]) == 0
        assert "matched nothing" not in capsys.readouterr().out

    def test_seeded_type_defect_fails_audit_with_code(
        self, tmp_path, capsys
    ):
        from repro.nlq.templates import StructuredQueryTemplate

        def mutate(space):
            intent = next(i for i in space.intents if i.kind == "lookup")
            intent.custom_templates = [StructuredQueryTemplate(
                intent_name=intent.name,
                sql="SELECT d.name FROM drug d WHERE d.name = 5",
            )]

        artifacts, baseline = _export_toy_space(tmp_path, mutate)
        assert main([
            "audit", "--artifacts", str(artifacts),
            "--baseline", str(baseline),
        ]) == 1
        assert "T001" in capsys.readouterr().out

    def test_seeded_ambiguity_defect_fails_audit_with_code(
        self, tmp_path, capsys
    ):
        from repro.bootstrap.training import TrainingExample

        def mutate(space):
            example = space.training_examples[0]
            other = next(
                i.name for i in space.intents if i.name != example.intent
            )
            space.training_examples.append(
                TrainingExample(utterance=example.utterance, intent=other)
            )

        artifacts, baseline = _export_toy_space(tmp_path, mutate)
        assert main([
            "audit", "--artifacts", str(artifacts),
            "--baseline", str(baseline),
        ]) == 1
        assert "A001" in capsys.readouterr().out

    def test_warning_code_fails_audit_under_strict(self, tmp_path, capsys):
        from repro.nlq.templates import StructuredQueryTemplate

        def mutate(space):
            first, second = [
                i for i in space.intents if i.kind == "lookup"
            ][:2]
            sql = "SELECT d.name FROM drug d WHERE d.name = :drug"
            for intent in (first, second):
                intent.custom_templates = [StructuredQueryTemplate(
                    intent_name=intent.name, sql=sql,
                    parameters={"drug": "Drug"},
                )]

        artifacts, baseline = _export_toy_space(tmp_path, mutate)
        argv = [
            "audit", "--artifacts", str(artifacts),
            "--baseline", str(baseline),
        ]
        assert main(argv) == 0  # A004 is a warning
        assert "A004" in capsys.readouterr().out
        assert main(argv + ["--strict"]) == 1


class TestBaselineCLI:
    def test_baseline_status_reports_entries(self, capsys):
        assert main(["baseline"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "suppressed" in out

    def test_baseline_update_regenerates_file(self, tmp_path, capsys):
        target = tmp_path / "generated-baseline"
        assert main([
            "baseline", "--update", "--baseline", str(target),
        ]) == 0
        text = target.read_text(encoding="utf-8")
        assert "Regenerated by" in text
        # The intentional MDX finding lands in the regenerated file and
        # the result parses back cleanly.
        assert "A003" in text
        from repro.analysis.baseline import Baseline

        assert Baseline.load(target).entries

    def test_baseline_update_preserves_review_comments(
        self, tmp_path, capsys
    ):
        target = tmp_path / "generated-baseline"
        target.write_text(
            "A003 space:synonym::contraindication  # reviewed: union "
            "subtype labels\n",
            encoding="utf-8",
        )
        assert main([
            "baseline", "--update", "--baseline", str(target),
        ]) == 0
        text = target.read_text(encoding="utf-8")
        assert "reviewed: union subtype labels" in text
        # The race findings are new relative to the seeded file and get
        # TODO markers; the preserved entry keeps its comment instead.
        for line in text.splitlines():
            if line.startswith("A003"):
                assert "TODO: review" not in line

"""Static-analysis cost benchmark: check / lint / audit on the full MDX.

Not a paper artifact — the analyzers are build-time tooling — but their
cost gates how often CI and SMEs can afford to run them, so it belongs
in the perf trajectory next to the serving numbers.  Times the analysis
layers over the full MDX conversation space (and the lint, race and
purity rules over one shared program model of ``src/repro``), then
reports per-layer wall time and finding counts against the per-layer
acceptance budgets (1 s per analysis pass, 2 s for the shared program
model).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis.ambiguity import check_ambiguity
from repro.analysis.model import build_model
from repro.analysis.purity import PurityConfig, analyze_purity_model
from repro.analysis.race import RaceConfig, analyze_model
from repro.analysis.space_checker import build_artifacts, check_space
from repro.analysis.type_checker import check_types
from repro.medical import build_mdx_database, build_mdx_ontology, build_mdx_space
from repro.medical.build import rename_to_paper_intents

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Acceptance budget for the semantic audit (type + ambiguity passes).
AUDIT_BUDGET_SECONDS = 1.0

#: Acceptance budget for the shared whole-program model build.  The
#: model is built once and reused by the lint, race *and* purity rules
#: (exactly how ``lint --deep`` and ``baseline`` run them), so its cost
#: is budgeted once rather than double-counted into each pass.
MODEL_BUDGET_SECONDS = 2.0

#: Acceptance budget for the race pass over an already-built model.
RACE_BUDGET_SECONDS = 1.0

#: Acceptance budget for the purity pass over an already-built model.
PURITY_BUDGET_SECONDS = 1.0


@pytest.fixture(scope="module")
def full_space():
    """The shipped MDX space, exactly as ``repro check``/``audit`` build it."""
    database = build_mdx_database()
    space = build_mdx_space(database, build_mdx_ontology(database))
    rename_to_paper_intents(space)
    return space, database


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_analysis_cost_trajectory(full_space, report):
    space, database = full_space
    artifacts, build_seconds = _timed(lambda: build_artifacts(space, database))
    check_findings, check_seconds = _timed(lambda: check_space(space, database))
    type_findings, type_seconds = _timed(lambda: check_types(artifacts))
    ambiguity_findings, ambiguity_seconds = _timed(
        lambda: check_ambiguity(artifacts)
    )
    model, model_seconds = _timed(lambda: build_model([REPO_SRC]))
    analysis, race_seconds = _timed(
        lambda: analyze_model(model, RaceConfig())
    )
    race_findings, rules_seconds = _timed(analysis.run)
    race_seconds += rules_seconds
    purity, summaries_seconds = _timed(
        lambda: analyze_purity_model(model, PurityConfig())
    )
    purity_findings, purity_rules_seconds = _timed(purity.run)
    purity_seconds = summaries_seconds + purity_rules_seconds
    lint_findings, lint_seconds = _timed(
        lambda: analysis.lint() + purity.lint()
    )

    audit_seconds = type_seconds + ambiguity_seconds
    report(
        "Static-analysis cost (full MDX space, "
        f"{len(space.intents)} intents / "
        f"{len(space.training_examples)} training examples):",
        f"  artifact build        {build_seconds * 1000:8.1f} ms",
        f"  check  (C codes)      {check_seconds * 1000:8.1f} ms  "
        f"{len(check_findings)} finding(s)",
        f"  audit: types (T)      {type_seconds * 1000:8.1f} ms  "
        f"{len(type_findings)} finding(s)",
        f"  audit: ambiguity (A)  {ambiguity_seconds * 1000:8.1f} ms  "
        f"{len(ambiguity_findings)} finding(s)",
        f"  program model         {model_seconds * 1000:8.1f} ms  "
        f"(shared by lint + race + purity; "
        f"budget {MODEL_BUDGET_SECONDS:.0f} s)",
        f"  lint   (L codes)      {lint_seconds * 1000:8.1f} ms  "
        f"{len(lint_findings)} finding(s) over the shared model",
        f"  race   (R/D codes)    {race_seconds * 1000:8.1f} ms  "
        f"{len(race_findings)} finding(s)  "
        f"({len(analysis.functions)} functions, "
        f"{len(analysis.edges)} lock-order edges; "
        f"budget {RACE_BUDGET_SECONDS:.0f} s)",
        f"  purity (P/X codes)    {purity_seconds * 1000:8.1f} ms  "
        f"{len(purity_findings)} finding(s)  "
        f"({len(purity.entries)} stage entries, "
        f"{len(purity.reach)} turn-path functions; "
        f"budget {PURITY_BUDGET_SECONDS:.0f} s)",
        f"  audit total           {audit_seconds * 1000:8.1f} ms  "
        f"(budget {AUDIT_BUDGET_SECONDS:.0f} s)",
    )

    assert check_findings == []
    assert type_findings == []
    # The single intentional cross-entity synonym (baselined in CI).
    assert [d.code for d in ambiguity_findings] == ["A003"]
    assert lint_findings == []
    # Every shipped race finding is a reviewed commit-point suppression
    # (fsync-under-lock durability contract) or the post-hoc feedback
    # reader — all carried in .repro-baseline; nothing new may appear.
    assert sorted({d.code for d in race_findings}) == ["R002", "R003"]
    assert len(race_findings) == 13
    # Every shipped purity finding is a reviewed replay-transparent
    # P003 (ephemeral per-statement objects, memos of a KB that cannot
    # change, observability counters) carried in .repro-baseline.
    assert sorted({d.code for d in purity_findings}) == ["P003"]
    assert len(purity_findings) == 10
    assert audit_seconds < AUDIT_BUDGET_SECONDS
    assert model_seconds < MODEL_BUDGET_SECONDS
    assert race_seconds < RACE_BUDGET_SECONDS
    assert purity_seconds < PURITY_BUDGET_SECONDS

"""Static analysis for the conversation system.

Five layers share one diagnostic framework (``repro check`` / ``lint`` /
``audit`` / ``race`` / ``purity``):

* :mod:`repro.analysis.space_checker` cross-validates the bootstrapped
  conversation-space artifacts (templates, logic table, dialogue tree,
  entities) against the ontology and the KB schema — at build time, not
  in front of a user;
* :mod:`repro.analysis.type_checker` does typed symbolic evaluation over
  each template's bound SQL against KB column types and value
  statistics (T001–T008) — both layers read the one bound query
  :func:`~repro.kb.sql.binder.bind` builds per template;
* :mod:`repro.analysis.ambiguity` measures conversation separability —
  duplicate/near-duplicate cross-intent utterances, cross-entity synonym
  collisions, shadowed templates, stray elicitations (A001–A005);
* :mod:`repro.analysis.model` + :mod:`repro.analysis.race` build a
  whole-program model (lock identities, guarded-field sites, a call
  graph with effect summaries) and run global concurrency rules
  (R001–R004), crash-consistency rules (D001–D003) and the per-method
  lint rules L001 (unlocked shared mutation) and L004 (blocking I/O in
  a request handler) over it;
* :mod:`repro.analysis.purity` runs replay-determinism rules
  (P001–P004: nondeterminism, order escapes, hidden state, environment
  dependence on the turn path), exception-flow rules (X001–X003) and
  the lint rules L002 (direct clock call) and L003 (swallowed
  exception) over the same model, proving journal replay reproduces
  every turn byte-for-byte and no exception kills a worker mid-commit.

``repro lint`` reports the L codes (plus L000 for unparseable files),
``lint --deep`` everything, all from one model build.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` values;
reviewed, intentional ones are suppressed by a
:class:`~repro.analysis.baseline.Baseline` file, regenerable with
``repro baseline --update``.
"""

from repro._lazy import lazy_exports

# Resolved on first access: a serving process's KB refresh validates
# with the space checker alone and must not load the code analyzers.
__getattr__ = lazy_exports(globals(), {
    "repro.analysis.ambiguity": (
        "AmbiguityConfig", "check_ambiguity", "check_space_ambiguity",
    ),
    "repro.analysis.baseline": (
        "Baseline", "BaselineEntry", "BaselineError", "render_baseline",
    ),
    "repro.analysis.diagnostics": (
        "Diagnostic", "DiagnosticCollector", "Location", "Severity",
        "error_count", "render_json", "render_pretty",
    ),
    "repro.analysis.model": ("ProjectModel", "build_model"),
    "repro.analysis.purity": (
        "PurityConfig", "analyze_purity_model", "check_purity_paths",
        "check_purity_sources",
    ),
    "repro.analysis.race": (
        "RaceConfig", "analyze_model", "check_race_paths",
        "check_race_sources",
    ),
    "repro.analysis.space_checker": (
        "SpaceArtifacts", "build_artifacts", "check_artifacts", "check_space",
    ),
    "repro.analysis.type_checker": ("check_space_types", "check_types"),
})

__all__ = [
    "AmbiguityConfig",
    "check_ambiguity",
    "check_space_ambiguity",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "render_baseline",
    "Diagnostic",
    "DiagnosticCollector",
    "Location",
    "Severity",
    "error_count",
    "render_json",
    "render_pretty",
    "ProjectModel",
    "build_model",
    "PurityConfig",
    "analyze_purity_model",
    "check_purity_paths",
    "check_purity_sources",
    "RaceConfig",
    "analyze_model",
    "check_race_paths",
    "check_race_sources",
    "SpaceArtifacts",
    "build_artifacts",
    "check_artifacts",
    "check_space",
    "check_space_types",
    "check_types",
]

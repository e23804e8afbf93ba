"""CLI entry points for ``python -m repro check|lint|race|purity|audit|baseline``.

All commands share one reporting pipeline: run the checkers, subtract
the baseline, render pretty text or JSON, and exit non-zero when any
non-baselined error remains (warnings too under ``--strict``).
``audit`` runs the semantic layers (type/dataflow + ambiguity) that
``check`` leaves out; ``purity`` runs the replay-determinism and
exception-flow rules; ``check --deep``/``lint --deep`` run everything;
``baseline --update`` regenerates the suppression file from current
findings.

The conversation-space checkers (``space_checker``, ``type_checker``,
``ambiguity``) load the bootstrap, KB and NLP layers, and with them
numpy and scipy, so they are imported inside the commands that check a
space: ``lint``, ``race`` and ``purity`` only parse source files.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.baseline import Baseline, BaselineError, render_baseline
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Location,
    error_count,
    render_json,
    render_pretty,
    sort_key,
)
from repro.analysis.model import ProjectModel, build_model
from repro.analysis.purity import PurityConfig, analyze_purity_model
from repro.analysis.race import RaceConfig, analyze_model
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.analysis.ambiguity import AmbiguityConfig


def _load_baseline(args: argparse.Namespace) -> Baseline:
    """``--baseline PATH``, else ``.repro-baseline`` if present.

    An unreadable or malformed file ends the command with one error
    line (``SystemExit``), before any analysis runs.
    """
    path = getattr(args, "baseline", None)
    try:
        return Baseline.load(path) if path else Baseline.discover()
    except (OSError, UnicodeDecodeError, BaselineError) as exc:
        raise SystemExit(f"--baseline: {exc}") from exc


def _report(
    diagnostics: list[Diagnostic],
    baseline: Baseline,
    args: argparse.Namespace,
    output_fn,
    header: str,
    code_prefixes: tuple[str, ...] | None = None,
    roots: list[str] | None = None,
) -> int:
    """Render and compute the exit code.

    ``code_prefixes`` scopes the unused-baseline-entry notes to the
    codes this command can actually emit — ``repro lint`` should not
    nag about an ``A003`` entry it could never match — and ``roots``
    to entries that could match a file under the analyzed paths.
    """
    active, suppressed = baseline.apply(diagnostics)
    if args.format == "json":
        output_fn(render_json(active))
    else:
        output_fn(header)
        output_fn(render_pretty(active))
        if suppressed:
            output_fn(f"({len(suppressed)} finding(s) suppressed by baseline)")
        for entry in baseline.unused_entries(diagnostics):
            if code_prefixes is not None and entry.code != "*" and not any(
                entry.code.startswith(prefix) for prefix in code_prefixes
            ):
                continue
            if roots is not None and not entry.can_match_under(roots):
                continue
            output_fn(
                f"note: baseline entry '{entry.code} "
                f"{entry.location_pattern}' matched nothing — consider "
                "removing it"
            )
    return 1 if error_count(active, strict=args.strict) else 0


def _build_space(args: argparse.Namespace):
    """The space under check and its KB: an ``--artifacts`` directory
    (its KB loaded and frozen, as a server serves it), or the shipped
    MDX agent built in-process, as ``repro serve`` serves it (the
    paper's intent names, the management intents folded in)."""
    if args.artifacts:
        from repro.artifacts import load_artifacts

        artifacts = load_artifacts(args.artifacts)
        return artifacts.space, artifacts.database
    from repro.medical import build_mdx_agent

    agent = build_mdx_agent()
    return agent.space, agent.database.backend


def _ambiguity_config(args: argparse.Namespace) -> AmbiguityConfig:
    from repro.analysis.ambiguity import AmbiguityConfig

    threshold = getattr(args, "near_duplicate_threshold", None)
    if threshold is None:
        return AmbiguityConfig()
    return AmbiguityConfig(near_duplicate_threshold=threshold)


def _space_diagnostics(
    space, database, args: argparse.Namespace, *, check: bool, audit: bool
) -> tuple[list[Diagnostic], int]:
    """The conversation-space layers over one artifact build.

    ``check`` runs the structural layer (C codes), ``audit`` the
    semantic ones (typed symbolic evaluation + ambiguity); every
    template is parsed and bound once, in :func:`build_artifacts`, for
    all of them.  Returns the findings plus the number of templates
    walked (for the report header).
    """
    from repro.analysis.space_checker import (
        artifact_failure,
        build_artifacts,
        check_artifacts,
    )

    try:
        artifacts = build_artifacts(space, database)
    except ReproError as exc:
        codes = (("C012",) if check else ()) + (("T001",) if audit else ())
        return [artifact_failure(code, exc, space) for code in codes], 0
    diagnostics = check_artifacts(artifacts) if check else []
    if audit:
        from repro.analysis.ambiguity import check_ambiguity
        from repro.analysis.type_checker import check_types

        diagnostics += check_types(artifacts)
        diagnostics += check_ambiguity(artifacts, _ambiguity_config(args))
    return (
        sorted(diagnostics, key=sort_key),
        sum(len(t) for t in artifacts.templates.values()),
    )


def cmd_check(args: argparse.Namespace, output_fn=print) -> int:
    """Validate the conversation space without executing a query."""
    baseline = _load_baseline(args)
    started = time.perf_counter()
    space, database = _build_space(args)
    deep = getattr(args, "deep", False)
    diagnostics, _ = _space_diagnostics(
        space, database, args, check=True, audit=deep
    )
    elapsed = time.perf_counter() - started
    header = (
        f"repro check{' --deep' if deep else ''}: "
        f"{len(space.intents)} intents, "
        f"{len(space.entities)} entities validated in {elapsed:.2f}s"
    )
    prefixes = ("C", "T", "A") if deep else ("C",)
    return _report(
        diagnostics, baseline, args, output_fn, header, code_prefixes=prefixes
    )


def parse_errors(model: ProjectModel) -> list[Diagnostic]:
    """L000 for every file the model could not parse (and so never saw)."""
    out = DiagnosticCollector()
    for path, exc in model.parse_errors:
        out.error(
            "L000",
            f"cannot parse module: {exc.msg}",
            Location(path, exc.lineno),
            rule="syntax-error",
        )
    return out.sorted()


def lint_model(
    model: ProjectModel,
    config: RaceConfig | None = None,
    deep: bool = False,
) -> list[Diagnostic]:
    """The L rules over one built model (plus R/D/P/X when ``deep``)."""
    race = analyze_model(model, config)
    purity = analyze_purity_model(model, PurityConfig())
    diagnostics = parse_errors(model) + race.lint() + purity.lint()
    if deep:
        diagnostics += race.run() + purity.run()
    return sorted(diagnostics, key=sort_key)


def _lint_targets(args: argparse.Namespace) -> list[str]:
    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(missing)}")
    return paths


def cmd_lint(args: argparse.Namespace, output_fn=print) -> int:
    """Run the concurrency/purity lint over the codebase."""
    baseline = _load_baseline(args)
    paths = _lint_targets(args)
    deep = getattr(args, "deep", False)
    diagnostics = lint_model(build_model(paths), deep=deep)
    header = (
        f"repro lint{' --deep' if deep else ''}: "
        f"{', '.join(str(p) for p in paths)}"
    )
    prefixes = ("L", "R", "D", "P", "X") if deep else ("L",)
    return _report(
        diagnostics, baseline, args, output_fn, header,
        code_prefixes=prefixes, roots=paths,
    )


def cmd_race(args: argparse.Namespace, output_fn=print) -> int:
    """Run the whole-program concurrency & crash-consistency analyzer."""
    baseline = _load_baseline(args)
    started = time.perf_counter()
    paths = _lint_targets(args)
    model = build_model(paths)
    analysis = analyze_model(model, RaceConfig())
    if getattr(args, "graph", False):
        output_fn(analysis.graph_dot())
        return 0
    diagnostics = parse_errors(model) + analysis.run()
    elapsed = time.perf_counter() - started
    header = (
        f"repro race: {', '.join(str(p) for p in paths)} — "
        f"{len(analysis.functions)} functions, "
        f"{len(analysis.lock_nodes)} locks, {len(analysis.edges)} "
        f"lock-order edges analyzed in {elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline=baseline, args=args,
        output_fn=output_fn, header=header, code_prefixes=("R", "D"),
        roots=paths,
    )


def cmd_purity(args: argparse.Namespace, output_fn=print) -> int:
    """Run the replay-determinism & exception-flow analyzer."""
    baseline = _load_baseline(args)
    started = time.perf_counter()
    paths = _lint_targets(args)
    model = build_model(paths)
    analysis = analyze_purity_model(model, PurityConfig())
    diagnostics = parse_errors(model) + analysis.run()
    elapsed = time.perf_counter() - started
    header = (
        f"repro purity: {', '.join(str(p) for p in paths)} — "
        f"{len(analysis.functions)} functions, "
        f"{len(analysis.entries)} stage entry points, "
        f"{len(analysis.reach)} turn-path functions analyzed in "
        f"{elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline=baseline, args=args,
        output_fn=output_fn, header=header, code_prefixes=("P", "X"),
        roots=paths,
    )


def cmd_audit(args: argparse.Namespace, output_fn=print) -> int:
    """Run the semantic audit: SQL type/dataflow + conversation ambiguity."""
    baseline = _load_baseline(args)
    started = time.perf_counter()
    space, database = _build_space(args)
    diagnostics, template_count = _space_diagnostics(
        space, database, args, check=False, audit=True
    )
    elapsed = time.perf_counter() - started
    header = (
        f"repro audit: {template_count} templates, "
        f"{len(space.training_examples)} training examples audited "
        f"in {elapsed:.2f}s"
    )
    return _report(
        diagnostics, baseline, args, output_fn, header,
        code_prefixes=("T", "A"),
    )


def _all_diagnostics(args: argparse.Namespace) -> list[Diagnostic]:
    """Every finding the analysis commands can produce, for ``baseline``."""
    space, database = _build_space(args)
    diagnostics, _ = _space_diagnostics(
        space, database, args, check=True, audit=True
    )
    lint_root = Path("src/repro")
    if lint_root.exists():
        diagnostics += lint_model(build_model([lint_root]), deep=True)
    return sorted(diagnostics, key=sort_key)


def cmd_baseline(args: argparse.Namespace, output_fn=print) -> int:
    """Show baseline status, or regenerate the file with ``--update``."""
    explicit = getattr(args, "baseline", None)
    if args.update and explicit and not Path(explicit).exists():
        # A fresh --update target: start from an empty baseline.
        baseline = Baseline(path=Path(explicit))
    else:
        baseline = _load_baseline(args)
    diagnostics = _all_diagnostics(args)
    if not args.update:
        active, suppressed = baseline.apply(diagnostics)
        source = baseline.path or "(no baseline file)"
        output_fn(
            f"repro baseline: {source} — {len(baseline.entries)} entries, "
            f"{len(suppressed)} finding(s) suppressed, "
            f"{len(active)} active"
        )
        for entry in baseline.unused_entries(diagnostics):
            output_fn(
                f"  unused: {entry.code} {entry.location_pattern}"
            )
        output_fn("(run with --update to regenerate from current findings)")
        return 0
    target = Path(args.baseline) if getattr(args, "baseline", None) else (
        baseline.path or Path(".repro-baseline")
    )
    text = render_baseline(diagnostics, previous=baseline)
    try:
        target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"--baseline: {exc}") from exc
    output_fn(
        f"repro baseline: wrote {target} suppressing "
        f"{len(diagnostics)} finding(s)"
    )
    return 0

"""Baseline suppression for reviewed, intentional findings.

A baseline file records findings that were inspected and accepted, so
CI only fails on *new* problems.  The format is line-oriented text kept
under version review next to the code it excuses::

    # repro analysis baseline.
    # <code> <location-pattern>   # why this finding is intentional
    L003 src/repro/legacy/*.py    # legacy shim, removed in PR 9
    C010 space:intent:Special*    # hand-served intent, no SQL on purpose

``location-pattern`` is an ``fnmatch`` glob matched against the
diagnostic's canonical location (``path`` or ``path::symbol`` — never a
line number, so baselines survive unrelated edits).  ``code`` must match
exactly, or be ``*`` to suppress every code at a location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic

#: Default baseline file name, looked up in the working directory.
DEFAULT_BASELINE_NAME = ".repro-baseline"


class BaselineError(ValueError):
    """The baseline file is malformed."""


@dataclass(frozen=True)
class BaselineEntry:
    """One suppression: a code plus a canonical-location glob."""

    code: str
    location_pattern: str
    comment: str = ""
    line: int = 0

    def matches(self, diag: Diagnostic) -> bool:
        if self.code != "*" and self.code != diag.code:
            return False
        return fnmatchcase(diag.location.canonical(), self.location_pattern)

    def can_match_under(self, roots: list[str | Path]) -> bool:
        """Could the pattern name a file under one of ``roots``?

        Compares the pattern's literal directory (up to its first glob
        character) with each root; a pattern with no literal directory
        could match anywhere.
        """
        path = self.location_pattern.split("::")[0]
        directory = re.split(r"[*?[]", path)[0].rpartition("/")[0]
        if not directory:
            return True
        for root in (Path(root).as_posix() for root in roots):
            if root == "." or directory == root:
                return True
            if directory.startswith(root + "/") or root.startswith(
                directory + "/"
            ):
                return True
        return False


@dataclass
class Baseline:
    """A parsed baseline file, applied with :meth:`apply`."""

    entries: list[BaselineEntry] = field(default_factory=list)
    path: Path | None = None

    @classmethod
    def parse(cls, text: str, path: Path | None = None) -> "Baseline":
        entries: list[BaselineEntry] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            body, _, comment = line.partition("#")
            parts = body.split()
            if len(parts) != 2:
                raise BaselineError(
                    f"baseline line {number}: expected "
                    f"'<code> <location-pattern>  # comment', got {raw!r}"
                )
            entries.append(
                BaselineEntry(
                    code=parts[0],
                    location_pattern=parts[1],
                    comment=comment.strip(),
                    line=number,
                )
            )
        return cls(entries=entries, path=path)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        return cls.parse(path.read_text(encoding="utf-8"), path=path)

    @classmethod
    def discover(cls, directory: str | Path = ".") -> "Baseline":
        """Load the default baseline file if present, else an empty one."""
        candidate = Path(directory) / DEFAULT_BASELINE_NAME
        if candidate.is_file():
            return cls.load(candidate)
        return cls()

    def suppresses(self, diag: Diagnostic) -> bool:
        return any(entry.matches(diag) for entry in self.entries)

    def apply(
        self, diagnostics: list[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Split diagnostics into (active, suppressed)."""
        active: list[Diagnostic] = []
        suppressed: list[Diagnostic] = []
        for diag in diagnostics:
            (suppressed if self.suppresses(diag) else active).append(diag)
        return active, suppressed

    def unused_entries(self, diagnostics: list[Diagnostic]) -> list[BaselineEntry]:
        """Entries that matched nothing — candidates for deletion."""
        return [
            entry
            for entry in self.entries
            if not any(entry.matches(d) for d in diagnostics)
        ]


def location_pattern_for(diag: Diagnostic) -> str:
    """A baseline location pattern that matches ``diag`` exactly.

    The baseline format is whitespace-separated, so a canonical location
    containing spaces (e.g. a training-utterance symbol) cannot be
    written verbatim; each whitespace run becomes a ``*`` glob, which
    still matches only that location's shape.
    """
    return "*".join(diag.location.canonical().split())


def render_baseline(
    diagnostics: list[Diagnostic],
    previous: Baseline | None = None,
    command: str = "python -m repro baseline --update",
) -> str:
    """Render a baseline file suppressing exactly ``diagnostics``.

    Entries of ``previous`` that still match a current finding are kept
    verbatim — hand-written globs and review comments survive the
    regeneration.  Findings not covered by a kept entry get an exact
    per-location entry marked for review; entries matching nothing are
    dropped.
    """
    previous = previous or Baseline()
    kept = [
        entry
        for entry in previous.entries
        if any(entry.matches(d) for d in diagnostics)
    ]
    kept_baseline = Baseline(entries=kept)
    fresh: dict[tuple[str, str], Diagnostic] = {}
    for diag in diagnostics:
        if kept_baseline.suppresses(diag):
            continue
        fresh.setdefault((diag.code, location_pattern_for(diag)), diag)
    lines = [
        "# repro analysis baseline.",
        f"# Regenerated by `{command}`.",
        "# <code> <location-pattern>  # why this finding is intentional",
    ]
    for entry in kept:
        line = f"{entry.code} {entry.location_pattern}"
        if entry.comment:
            line += f"  # {entry.comment}"
        lines.append(line)
    for (code, pattern), diag in sorted(fresh.items()):
        lines.append(f"{code} {pattern}  # TODO: review ({diag.rule})")
    return "\n".join(lines) + "\n"

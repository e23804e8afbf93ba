"""The export directory: what ``repro export`` writes and ``--artifacts`` serves.

One directory is the unit between the offline and the online halves,
as the paper trains once and uploads the artifacts to one workspace
(§7).  It holds:

* ``conversation_space.json`` — the space (:func:`space_to_dict`), plus
  the agent's name, domain and glossary under ``"assistant"``;
* ``intent_model.npz`` — the intent classifier fitted on that space;
* ``kb.db`` — the knowledge base as a plain SQLite file;
* ``artifacts.json`` — the sha256 of each of those three, written last.

:func:`load_artifacts` refuses a directory whose manifest is missing,
whose files do not match it, or whose model was not fitted on its
space, with one error line naming the file: a half-written export, or a
file copied in from another build, is never served and never makes a
serving process fit a model.

A refresh re-reads the directory the server was started from
(:meth:`Artifacts.next_database`), so a new KB version is published by
pointing that path (a symlink, say) at a new export of the same space
and model.

Only the standard library is imported at module level: the router
process (``serve --workers N``) checks a directory before it spawns its
workers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro.atomic import atomic_write
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bootstrap import ConversationSpace
    from repro.engine import ConversationAgent
    from repro.kb import Database
    from repro.nlp.classifier import IntentClassifier

SPACE_FILE = "conversation_space.json"
MODEL_FILE = "intent_model.npz"
KB_FILE = "kb.db"
MANIFEST_FILE = "artifacts.json"
#: The files whose sha256 the manifest holds.
FILES = (SPACE_FILE, MODEL_FILE, KB_FILE)


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ReproError(f"{path} is missing") from None
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror}") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(_read(path)).hexdigest()


def write_artifacts(directory: str | Path, agent: ConversationAgent) -> Path:
    """Write ``agent``'s space, intent model and KB to ``directory``.

    Each file is replaced atomically, and the manifest is removed first
    and written last, so an export that dies part-way leaves a
    directory that :func:`load_artifacts` refuses.
    """
    from repro.bootstrap import space_to_dict
    from repro.kb.io import save_sqlite

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MANIFEST_FILE).unlink(missing_ok=True)
    document = space_to_dict(agent.space)
    document["assistant"] = {
        "agent_name": agent.agent_name,
        "domain": agent.domain,
        "glossary": agent.glossary,
    }
    atomic_write(
        directory / SPACE_FILE,
        json.dumps(document, indent=2).encode("utf-8"),
    )
    agent.classifier.save(directory / MODEL_FILE)
    save_sqlite(agent.database.backend, directory / KB_FILE)
    digests = {name: _sha256(directory / name) for name in FILES}
    atomic_write(
        directory / MANIFEST_FILE,
        json.dumps({"sha256": digests}, indent=2).encode("utf-8"),
    )
    return directory


def _verified(directory: str | Path) -> tuple[Path, dict[str, str]]:
    """The directory with symlinks resolved, and its manifest's digests
    once every file matches its own; raises :class:`ReproError`."""
    root = Path(directory).resolve()
    manifest = root / MANIFEST_FILE
    try:
        digests = dict(json.loads(_read(manifest))["sha256"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ReproError(f"{manifest} is not a manifest: {exc!r}") from None
    for name in FILES:
        if _sha256(root / name) != digests.get(name):
            raise ReproError(
                f"{root / name} does not match its sha256 in {MANIFEST_FILE} "
                "(a file from another export?)"
            )
    return root, digests


def _load_kb(root: Path) -> Database:
    from repro.kb.io import load_sqlite

    return load_sqlite(root / KB_FILE).freeze()


def verify_artifacts(directory: str | Path) -> None:
    """Refuse (``SystemExit``) a directory that does not match its manifest."""
    try:
        _verified(directory)
    except ReproError as exc:
        raise SystemExit(f"--artifacts: {exc}") from None


def load_artifacts(directory: str | Path) -> Artifacts:
    """Load a directory :func:`write_artifacts` wrote.

    Every file is checked against the manifest first, and the intent
    model is loaded, never fitted.  A missing or mismatched file, or a
    model not fitted on the space, ends the command with one
    ``SystemExit`` line that names the file.
    """
    from repro.bootstrap import space_from_dict
    from repro.nlp.classifier import IntentClassifier

    try:
        root, digests = _verified(directory)
        database = _load_kb(root)
        path = root / SPACE_FILE
        try:
            document = json.loads(_read(path))
            space = space_from_dict(document, database=database)
        except (ValueError, ReproError) as exc:
            raise ReproError(f"{path}: {exc}") from None
        examples = space.training_examples
        classifier = IntentClassifier().load(
            root / MODEL_FILE,
            [example.utterance for example in examples],
            [example.intent for example in examples],
        )
    except ReproError as exc:
        raise SystemExit(f"--artifacts: {exc}") from None
    return Artifacts(
        Path(directory), digests, space, database, classifier,
        document.get("assistant", {}),
    )


class Artifacts(NamedTuple):
    """A verified export directory, loaded (see :func:`load_artifacts`)."""

    directory: Path
    digests: dict[str, str]
    space: ConversationSpace
    database: Database
    classifier: IntentClassifier
    assistant: dict

    def agent(self) -> ConversationAgent:
        """The agent the directory defines, with its fitted intent model."""
        from repro.engine import ConversationAgent

        return ConversationAgent.build(
            self.space, self.database, classifier=self.classifier,
            **self.assistant,
        )

    def next_database(self) -> Database:
        """The KB the directory holds now, for ``POST /refresh``.

        Raises :class:`ReproError` (a failed refresh build) when the
        directory does not match its manifest, or when its space or
        model differs from the ones being served: a refresh swaps the
        KB only.
        """
        root, digests = _verified(self.directory)
        for name in (SPACE_FILE, MODEL_FILE):
            if digests[name] != self.digests[name]:
                raise ReproError(
                    f"{root / name} differs from the one being served; a "
                    "refresh replaces only the KB"
                )
        return _load_kb(root)

"""Fixtures for the persistence tests.

Durability tests need agents twice over: an in-process one to drive
``DurableSessionStore`` directly, and an artifact directory (space,
intent model and ``kb.db``) so router tests can spawn worker
*subprocesses* that load the identical agent in about a second.  The
agent build is deterministic, so an uninterrupted control conversation
and a crash-recovered one can be compared byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.artifacts import write_artifacts
from repro.engine import ConversationAgent
from tests.serving.conftest import build_toy_agent

#: A multi-turn conversation exercising context carry-over (the
#: follow-up turns only make sense given the turns before them), so a
#: recovery that dropped or reordered state produces different text.
GOLDEN_SCRIPT = [
    "dosage for Aspirin",
    "how about for Ibuprofen?",
    "what treats Fever",
    "tell me about Tazarotene",
    "how about Fluocinonide?",
]


@pytest.fixture
def agent() -> ConversationAgent:
    return build_toy_agent()


@pytest.fixture(scope="session")
def toy_artifacts(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """The toy agent's artifact directory, for ``serve --artifacts``."""
    return write_artifacts(
        tmp_path_factory.mktemp("toy-artifacts"), build_toy_agent()
    )


def run_script(
    session, utterances: list[str] | None = None
) -> list[str]:
    """Drive ``session`` through a script; returns the response texts."""
    return [
        session.ask(utterance).text
        for utterance in (utterances or GOLDEN_SCRIPT)
    ]

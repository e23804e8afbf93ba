"""Fixtures for the serving-layer tests.

Serving tests mutate agent state (they wrap the database and open
sessions), so every fixture here builds a fresh toy agent instead of
borrowing the session-scoped read-only one.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.bootstrap import bootstrap_conversation_space
from repro.engine import ConversationAgent
from repro.ontology import generate_ontology
from tests.conftest import make_toy_database


def build_toy_agent() -> ConversationAgent:
    db = make_toy_database()
    ontology = generate_ontology(db, "toy")
    ontology.concept("Drug").synonyms.extend(["medication", "medicine"])
    space = bootstrap_conversation_space(
        ontology, db, key_concepts=["Drug", "Indication"]
    )
    return ConversationAgent.build(
        space, db, agent_name="ToyServe", domain="toy drug reference"
    )


@pytest.fixture
def fresh_agent() -> ConversationAgent:
    return build_toy_agent()


class FakeClock:
    """A manually-advanced monotonic clock for TTL tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def http_json(
    url: str, payload: dict | None = None, timeout: float = 15.0
) -> tuple[int, dict]:
    """POST (payload given) or GET ``url``; returns (status, parsed body)."""
    data = None
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_text(url: str, timeout: float = 15.0) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")

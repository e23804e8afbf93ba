"""Golden-transcript regression suite for the online turn path.

The fixtures under ``golden/`` were recorded against the pre-pipeline
agent (the imperative ``ConversationAgent.respond`` dispatcher), so the
stage-pipeline refactor is held to *byte-identical* behaviour: every
response text, intent, confidence, kind, entity binding, SQL statement
and thumbs-feedback mark must replay exactly.

The conversations cover the shipped example flows:

* the §6.3 clinical session (slot filling, incremental modification,
  definition repair, appreciation, goodbye),
* the §6.3 User 480 "cogentin" keyword flow (entity-only proposal,
  rejection, concept-carrying keyword redirect),
* a four-turn slot-filling chain (drug → condition → age group),
* partial-name disambiguation ("Calcium" → Calcium Citrate),
* thumbs feedback capture (up and down marks on a session's records).

Re-record (ONLY when behaviour is intentionally changed)::

    PYTHONPATH=src python tests/integration/test_golden_transcripts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")

#: Special steps: thumbs feedback instead of an utterance.
THUMBS_UP, THUMBS_DOWN = "<thumbs-up>", "<thumbs-down>"

CONVERSATIONS: dict[str, list[str]] = {
    "clinical_session": [
        "show me drugs that treat psoriasis", "adult", "I mean pediatric",
        "what do you mean by effective?", "thanks",
        "dosage for Tazarotene", "how about for Fluocinonide?",
        "thanks", "no", "goodbye",
    ],
    "user480_keyword": [
        "cogentin", "What are the side effects of cogentin",
        "no", "cogentin adverse effects",
    ],
    "slot_filling": [
        "what is the dosage", "cogentin", "Parkinsonism", "adult",
    ],
    "disambiguation": [
        "precautions of Calcium", "Citrate",
    ],
    "feedback_thumbs": [
        "adverse effects of cogentin", THUMBS_UP,
        "apfjhd", THUMBS_DOWN,
    ],
}


def play(agent, steps: list[str]) -> dict:
    """Run one conversation and capture everything a user could observe."""
    session = agent.session()
    transcript: dict = {"opening": session.open(), "turns": []}
    for step in steps:
        if step in (THUMBS_UP, THUMBS_DOWN):
            if step == THUMBS_UP:
                session.thumbs_up()
            else:
                session.thumbs_down()
            transcript["turns"].append({
                "user": step,
                "feedback": session.transcript()[-1].feedback,
            })
            continue
        response = session.ask(step)
        transcript["turns"].append({
            "user": step,
            "text": response.text,
            "intent": response.intent,
            "confidence": response.confidence,
            "kind": response.kind,
            "entities": dict(response.entities),
            "rows": [list(row) for row in response.rows],
            "sql": response.sql,
            "elicit_concept": response.elicit_concept,
        })
    return transcript


@pytest.mark.parametrize("name", sorted(CONVERSATIONS))
def test_golden_transcript_replays_byte_identically(mdx_agent, name):
    fixture_path = GOLDEN_DIR / f"{name}.json"
    recorded = json.loads(fixture_path.read_text(encoding="utf-8"))
    replayed = json.loads(json.dumps(play(mdx_agent, CONVERSATIONS[name])))
    assert replayed == recorded


def record() -> None:
    """Write (or overwrite) every fixture from a freshly built agent."""
    from repro.medical import build_mdx_agent

    GOLDEN_DIR.mkdir(exist_ok=True)
    agent = build_mdx_agent()
    for name, steps in sorted(CONVERSATIONS.items()):
        fixture_path = GOLDEN_DIR / f"{name}.json"
        fixture_path.write_text(
            json.dumps(play(agent, steps), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded {fixture_path}")


if __name__ == "__main__":
    record()

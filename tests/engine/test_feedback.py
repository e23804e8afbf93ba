"""Tests for thumbs feedback on turn records (§7.2)."""

import pytest

from repro.dialogue.context import TurnRecord
from repro.engine.feedback import interaction_records
from repro.eval.success import per_intent_success, success_rate


def turn(intent="A", feedback=None) -> TurnRecord:
    return TurnRecord(
        user="u", agent="r", intent=intent, confidence=0.9,
        outcome_kind="answer", feedback=feedback,
    )


class TestLog:
    """A session's transcript is its interaction log."""

    def test_append_and_len(self, toy_agent):
        session = toy_agent.session()
        session.ask("precaution for Aspirin")
        session.ask("dosage for Ibuprofen")
        records = interaction_records(session.id, session.transcript())
        assert len(records) == 2
        assert [r.utterance for r in records] == [
            "precaution for Aspirin", "dosage for Ibuprofen",
        ]
        assert {r.session_id for r in records} == {session.id}

    def test_mark_last(self, toy_agent):
        session = toy_agent.session()
        session.ask("precaution for Aspirin")
        session.ask("dosage for Ibuprofen")
        session.thumbs_down()
        assert [t.feedback for t in session.transcript()] == [None, "down"]
        records = interaction_records(session.id, session.transcript())
        assert records[-1].feedback == "down"

    def test_mark_last_requires_record(self, toy_agent):
        with pytest.raises(ValueError, match="no interaction"):
            toy_agent.session().thumbs_down()

    def test_mark_last_validates_value(self, toy_agent):
        session = toy_agent.session()
        session.ask("precaution for Aspirin")
        with pytest.raises(ValueError):
            session.context.mark_last_turn("sideways")
        assert session.transcript()[-1].feedback is None


class TestEquationOne:
    """Equation 1 over the records a transcript converts to."""

    def test_empty_log_is_perfect(self):
        assert success_rate(interaction_records(1, [])) == 1.0

    def test_success_rate(self):
        history = [turn(feedback=f) for f in (None, None, "down", "up")]
        assert success_rate(interaction_records(1, history)) == 0.75

    def test_per_intent(self):
        history = [turn("A"), turn("A", feedback="down"), turn("B")]
        per_intent = {
            s.intent: (s.interactions, s.negative)
            for s in per_intent_success(interaction_records(1, history))
        }
        assert per_intent["A"] == (2, 1)
        assert per_intent["B"] == (1, 0)

    def test_intentless_records_grouped(self):
        records = interaction_records(1, [turn(intent=None)])
        assert [s.intent for s in per_intent_success(records)] == ["<none>"]

"""Tests for the online conversation agent over the toy KB."""

import gc
import tracemalloc

import pytest

from repro.errors import EngineError


@pytest.fixture
def session(toy_agent):
    return toy_agent.session()


class TestBasicAnswers:
    def test_greeting(self, session):
        opening = session.open()
        assert "ToyMDX" in opening

    def test_lookup_answer(self, session):
        response = session.ask("show me the precaution for Aspirin")
        assert response.kind == "answer"
        assert response.intent == "Precaution of Drug"
        assert "Use with caution." in response.text
        assert response.sql is not None

    def test_relationship_answer(self, session):
        response = session.ask("what drug treats Psoriasis")
        assert response.kind == "answer"
        assert "Ibuprofen" in response.text

    def test_inverse_relationship(self, session):
        response = session.ask("what indication is treated by Tazarotene")
        assert "Acne" in response.text

    def test_empty_utterance_rejected(self, session):
        with pytest.raises(EngineError):
            session.ask("  ")

    def test_gibberish_falls_back(self, session):
        response = session.ask("qwertyuiop zxcvb")
        assert response.kind == "fallback"


class TestSlotFilling:
    def test_elicit_then_answer(self, session):
        first = session.ask("show me the precaution")
        assert first.kind == "elicit"
        assert first.elicit_concept == "Drug"
        second = session.ask("Aspirin")
        assert second.kind == "answer"
        assert second.intent == "Precaution of Drug"
        assert "Use with caution." in second.text

    def test_slot_answer_with_sentence(self, session):
        session.ask("show me the precaution")
        response = session.ask("for Ibuprofen please")
        assert response.kind == "answer"
        assert "Take with food." in response.text

    def test_abort_during_slot_filling(self, session):
        session.ask("show me the precaution")
        response = session.ask("never mind")
        assert response.kind == "management"
        assert response.intent == "abort"


class TestPersistentContext:
    def test_incremental_modification(self, session):
        session.ask("show me the precaution for Aspirin")
        response = session.ask("what about Ibuprofen?")
        assert response.kind == "answer"
        assert "Take with food." in response.text

    def test_context_carries_across_intents(self, session):
        session.ask("dosage for Tazarotene that treats Acne")
        response = session.ask("precaution for Tazarotene")
        assert response.kind == "answer"

    def test_transcript_records_turns(self, session):
        session.ask("precaution for Aspirin")
        session.ask("thanks")
        transcript = session.transcript()
        assert len(transcript) == 2
        assert transcript[0].intent == "Precaution of Drug"


class TestManagement:
    def test_thanks(self, session):
        response = session.ask("thanks")
        assert response.kind == "management"
        assert "welcome" in response.text.lower()

    def test_goodbye(self, session):
        assert "Goodbye" in session.ask("goodbye").text

    def test_repeat_request(self, session):
        session.ask("precaution for Aspirin")
        response = session.ask("what did you say?")
        assert response.intent == "repeat_request"
        assert "Use with caution." in response.text

    def test_definition_request_uses_glossary(self, toy_agent):
        toy_agent.glossary["precaution"] = "a special care condition."
        session = toy_agent.session()
        response = session.ask("what do you mean by precaution?")
        assert response.intent == "definition_request"
        assert "special care" in response.text

    def test_definition_request_unknown_term(self, session):
        response = session.ask("what does zyzzyva mean?")
        assert response.intent == "definition_request"
        assert "don't have a definition" in response.text


class TestKeywordFlow:
    def test_keyword_starts_proposal(self, toy_agent):
        session = toy_agent.session()
        response = session.ask("Benazepril")
        assert response.kind == "proposal"
        assert "would you like to see" in response.text.lower()

    def test_affirmative_accepts_proposal(self, toy_agent):
        session = toy_agent.session()
        session.ask("Benazepril")
        response = session.ask("yes")
        assert response.kind == "answer"
        assert "Benazepril" in response.text

    def test_two_rejections_abort(self, toy_agent):
        session = toy_agent.session()
        first = session.ask("Benazepril")
        assert first.kind == "proposal"
        second = session.ask("no")
        # Either a second proposal or the abort, depending on options.
        if second.kind == "proposal":
            third = session.ask("no")
            assert third.kind == "management"
            assert "modify your search" in third.text.lower()

    def test_keyword_with_concept_answers_directly(self, toy_agent):
        """'cogentin adverse effects' style: entity + dependent concept."""
        session = toy_agent.session()
        response = session.ask("Benazepril precaution")
        assert response.kind == "answer"
        assert response.intent == "Precaution of Drug"


class TestDisambiguation:
    def test_partial_name_asks(self, toy_agent):
        session = toy_agent.session()
        response = session.ask("Calcium")
        assert response.kind == "disambiguate"
        assert "Calcium Carbonate" in response.text

    def test_selection_resolves(self, toy_agent):
        session = toy_agent.session()
        session.ask("precaution for Calcium")
        response = session.ask("the citrate one")
        assert "Calcium Citrate" in str(response.entities.values()) or (
            response.kind in ("answer", "proposal")
        )


class TestMisspellings:
    def test_fuzzy_recognition_in_answer(self, toy_agent):
        session = toy_agent.session()
        response = session.ask("precaution for asprin")
        assert response.kind == "answer"
        assert "Use with caution." in response.text


class TestFeedback:
    def test_thumbs_recorded(self, toy_agent):
        session = toy_agent.session()
        session.ask("precaution for Aspirin")
        session.thumbs_up()
        assert [t.feedback for t in session.transcript()] == ["up"]

    def test_sessions_have_distinct_ids(self, toy_agent):
        assert toy_agent.session().id != toy_agent.session().id


class TestMemory:
    SCRIPT = [
        "precaution for Aspirin", "what is the dosage", "Ibuprofen",
        "how about for Aspirin?",
    ]

    def _run(self, agent, sessions: int) -> None:
        for _ in range(sessions):
            session = agent.session()
            for utterance in self.SCRIPT:
                session.ask(utterance)
            session.thumbs_down()

    def test_live_session_keeps_only_the_last_trace(self, toy_agent):
        # ``chat --trace`` and ``/chat`` debug render the trace of the
        # response just returned; older turns drop theirs from history.
        from repro.engine.pipeline import render_trace

        def shown(trace):
            return render_trace(trace), trace.to_dict()

        session = toy_agent.session()
        responses, at_the_time = [], []
        for utterance in self.SCRIPT:
            response = session.ask(utterance)
            assert session.last_trace() is response.trace
            responses.append(response)
            at_the_time.append(shown(response.trace))
        history = session.transcript()
        assert [t.trace is None for t in history] == [True] * 3 + [False]
        # Dropping a trace from history leaves the response's own intact.
        assert [shown(r.trace) for r in responses] == at_the_time

    def test_dropped_sessions_retain_nothing_per_turn(self, toy_agent):
        # Warm up first so plan caches and memos are already populated.
        self._run(toy_agent, 50)
        gc.collect()
        sessions = 500
        tracemalloc.start()
        try:
            self._run(toy_agent, sessions)
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        turns = sessions * len(self.SCRIPT)
        assert retained / turns < 50, f"{retained / turns:.0f} B per turn"

"""Per-stage unit tests for the turn pipeline over the toy KB.

Every stage from :func:`repro.engine.stages.default_stages` gets a
dedicated test of its contract: the state it refines (or the final
response it produces) and the conditions under which it passes.
"""

import numpy as np
import pytest

from repro.dialogue.context import ConversationContext
from repro.engine import stages as st
from repro.engine.kinds import ResponseKind
from repro.engine.pipeline import TurnState
from repro.engine.stages import CONTEXT_CONFIDENCE


def make_state(agent, utterance, context=None):
    """A TurnState as the context stages see it: classified + recognized."""
    state = TurnState(
        utterance=utterance, context=context or ConversationContext()
    )
    st.Classify(agent).run(state)
    state.pop_detail()
    return state


def intent_requiring(agent, concept):
    """Some domain lookup intent whose only required entity is ``concept``."""
    for intent in agent.space.intents:
        if intent.kind == "lookup" and [
            c.lower() for c in intent.required_entities
        ] == [concept.lower()]:
            return intent
    raise AssertionError(f"no lookup intent requires only {concept}")


class TestClassify:
    def test_classifies_and_recognizes(self, toy_agent):
        state = TurnState(
            utterance="precaution for Aspirin", context=ConversationContext()
        )
        assert st.Classify(toy_agent).run(state) is None
        assert state.intent == "Precaution of Drug"
        assert state.recognition.values.get("Drug") == "Aspirin"
        detail = state.pop_detail()
        assert detail["intent"] == "Precaution of Drug"
        assert detail["entities"] == 1

    def test_stores_the_scored_distribution(self, toy_agent):
        # The distribution the ranking stages read is exactly the one a
        # fresh scoring of the utterance gives, for every training one.
        classifier = toy_agent.classifier
        utterances = [e.utterance for e in toy_agent.space.training_examples]
        assert utterances
        for utterance in utterances:
            state = TurnState(utterance=utterance, context=ConversationContext())
            st.Classify(toy_agent).run(state)
            expected = classifier.model.predict_proba(
                classifier.vectorizer.transform([utterance])
            )[0]
            assert np.array_equal(state.distribution, expected), utterance

    def test_gibberish_guard_clears_the_intent(self, toy_agent):
        state = TurnState(
            utterance="qwertyuiop zxcvb", context=ConversationContext()
        )
        st.Classify(toy_agent).run(state)
        assert state.intent is None
        assert state.confidence == 0.0
        assert state.pop_detail().get("gibberish") is True


class TestManagementRescue:
    def test_weak_management_yields_to_domain_reading(self, toy_agent):
        state = make_state(toy_agent, "what indication is treated by Tazarotene")
        state.adopt("definition_request", 0.3)
        assert st.ManagementRescue(toy_agent).run(state) is None
        assert st.domain_intent(toy_agent, state.intent) is not None

    def test_confident_management_is_kept(self, toy_agent):
        state = make_state(toy_agent, "what indication is treated by Tazarotene")
        state.adopt("definition_request", 0.9)
        st.ManagementRescue(toy_agent).run(state)
        assert state.intent == "definition_request"


class TestResolveDisambiguation:
    def pending(self, context, intent="Precaution of Drug"):
        context.variables["disambiguation"] = {
            "surface": "Calcium",
            "candidates": [
                ("Drug", "Calcium Carbonate"), ("Drug", "Calcium Citrate"),
            ],
            "intent": intent,
            "confidence": 0.3,
        }

    def test_reply_selects_the_candidate(self, toy_agent):
        context = ConversationContext()
        self.pending(context)
        state = make_state(toy_agent, "the citrate one", context)
        assert st.ResolveDisambiguation(toy_agent).run(state) is None
        assert state.recognition.values["Drug"] == "Calcium Citrate"
        assert state.intent == "Precaution of Drug"
        assert state.confidence == CONTEXT_CONFIDENCE
        assert "disambiguation" not in context.variables

    def test_unrelated_reply_clears_the_pending_question(self, toy_agent):
        context = ConversationContext()
        self.pending(context)
        state = make_state(toy_agent, "precaution for Aspirin", context)
        st.ResolveDisambiguation(toy_agent).run(state)
        assert "disambiguation" not in context.variables
        assert state.recognition.values["Drug"] == "Aspirin"

    def test_no_pending_passes(self, toy_agent):
        state = make_state(toy_agent, "the citrate one")
        assert st.ResolveDisambiguation(toy_agent).run(state) is None


class TestProposal:
    def pending(self, agent, context):
        options = st.proposal_options(agent, "Drug")
        assert options
        context.variables["proposal"] = {
            "concept": "Drug", "value": "Benazepril",
            "options": options, "index": 0,
        }

    def test_affirmative_accepts_and_answers(self, toy_agent):
        context = ConversationContext()
        self.pending(toy_agent, context)
        state = make_state(toy_agent, "yes", context)
        response = st.Proposal(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.ANSWER
        assert "Benazepril" in response.text
        assert "proposal" not in context.variables

    def test_negative_moves_to_the_next_option_or_aborts(self, toy_agent):
        context = ConversationContext()
        self.pending(toy_agent, context)
        state = make_state(toy_agent, "no", context)
        response = st.Proposal(toy_agent).run(state)
        assert response is not None
        assert response.kind in (ResponseKind.PROPOSAL, ResponseKind.MANAGEMENT)

    def test_unrelated_reply_abandons_the_proposal(self, toy_agent):
        context = ConversationContext()
        self.pending(toy_agent, context)
        state = make_state(toy_agent, "precaution for Aspirin", context)
        assert st.Proposal(toy_agent).run(state) is None
        assert "proposal" not in context.variables

    def test_no_pending_passes(self, toy_agent):
        state = make_state(toy_agent, "yes")
        assert st.Proposal(toy_agent).run(state) is None


class TestSlotFill:
    def test_bare_value_adopts_the_pending_intent(self, toy_agent):
        context = ConversationContext()
        context.begin_slot_filling("Precaution of Drug", "Drug")
        state = make_state(toy_agent, "Aspirin", context)
        assert st.SlotFill(toy_agent).run(state) is None
        assert state.intent == "Precaution of Drug"
        assert state.confidence == CONTEXT_CONFIDENCE
        assert state.recognition.values["Drug"] == "Aspirin"

    def test_without_pending_elicitation_passes(self, toy_agent):
        state = make_state(toy_agent, "Aspirin")
        before = (state.intent, state.confidence)
        assert st.SlotFill(toy_agent).run(state) is None
        assert (state.intent, state.confidence) == before


class TestContextReinterpret:
    def test_entity_only_followup_reuses_the_current_intent(self, toy_agent):
        context = ConversationContext()
        context.current_intent = "Precaution of Drug"
        state = make_state(toy_agent, "what about Ibuprofen?", context)
        state.confidence = 0.1  # classifier unsure about the fragment
        assert st.ContextReinterpret(toy_agent).run(state) is None
        assert state.intent == "Precaution of Drug"
        assert state.confidence == CONTEXT_CONFIDENCE

    def test_concept_mention_starts_a_new_request(self, toy_agent):
        context = ConversationContext()
        context.current_intent = "Precaution of Drug"
        state = make_state(toy_agent, "dosage for Ibuprofen", context)
        before = state.intent
        st.ContextReinterpret(toy_agent).run(state)
        assert state.intent == before  # not hijacked back to precaution

    def test_without_prior_intent_passes(self, toy_agent):
        state = make_state(toy_agent, "what about Ibuprofen?")
        state.confidence = 0.1
        st.ContextReinterpret(toy_agent).run(state)
        assert state.confidence == 0.1


class TestEntityRescue:
    def test_low_confidence_corroborated_by_concept_mention(self, toy_agent):
        state = make_state(toy_agent, "precaution for Aspirin")
        state.adopt(None, 0.05)
        assert st.EntityRescue(toy_agent).run(state) is None
        assert state.intent == "Precaution of Drug"
        assert state.confidence >= toy_agent.tree.confidence_threshold

    def test_confident_classification_untouched(self, toy_agent):
        state = make_state(toy_agent, "precaution for Aspirin")
        state.adopt("Precaution of Drug", 0.9)
        st.EntityRescue(toy_agent).run(state)
        assert state.confidence == 0.9


class TestKeywordRoute:
    def test_bare_entity_routes_to_the_keyword_intent(self, toy_agent):
        state = make_state(toy_agent, "Benazepril")
        assert st.KeywordRoute(toy_agent).run(state) is None
        intent = toy_agent.space.intent(state.intent)
        assert intent.kind == "keyword"

    def test_slot_filling_claims_the_bare_entity_first(self, toy_agent):
        context = ConversationContext()
        context.begin_slot_filling("Precaution of Drug", "Drug")
        state = make_state(toy_agent, "Benazepril", context)
        state.adopt("Precaution of Drug", CONTEXT_CONFIDENCE)
        st.KeywordRoute(toy_agent).run(state)
        assert state.intent == "Precaution of Drug"

    def test_full_sentence_passes(self, toy_agent):
        state = make_state(toy_agent, "precaution for Benazepril")
        before = state.intent
        st.KeywordRoute(toy_agent).run(state)
        assert state.intent == before


class TestSlotArbitration:
    def test_missing_slots_yield_to_a_filled_runner_up(self, toy_agent):
        indication_intent = intent_requiring(toy_agent, "Indication")
        state = make_state(toy_agent, "precaution for Aspirin")
        state.adopt(indication_intent.name, 0.6)  # requires an Indication
        assert st.SlotArbitration(toy_agent).run(state) is None
        assert state.intent == "Precaution of Drug"

    def test_satisfied_intent_is_kept(self, toy_agent):
        state = make_state(toy_agent, "precaution for Aspirin")
        state.adopt("Precaution of Drug", 0.6)
        st.SlotArbitration(toy_agent).run(state)
        assert state.intent == "Precaution of Drug"
        assert state.confidence == 0.6


class TestAskDisambiguation:
    def test_ambiguous_partial_name_asks(self, toy_agent):
        context = ConversationContext()
        state = make_state(toy_agent, "Calcium", context)
        assert state.recognition.ambiguous
        response = st.AskDisambiguation(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.DISAMBIGUATE
        assert "Calcium Carbonate" in response.text
        assert context.variables["disambiguation"]["surface"]

    def test_unambiguous_utterance_passes(self, toy_agent):
        state = make_state(toy_agent, "precaution for Aspirin")
        assert st.AskDisambiguation(toy_agent).run(state) is None


class TestTreeTraversal:
    def test_sets_the_outcome_for_the_acting_stages(self, toy_agent):
        state = make_state(toy_agent, "precaution for Aspirin")
        assert st.TreeTraversal(toy_agent).run(state) is None
        assert state.outcome is not None
        assert state.outcome.kind == "answer"
        detail = state.pop_detail()
        assert detail["outcome"] == "answer"


def outcome_state(agent, utterance, context=None):
    """A state that already ran classification and tree traversal."""
    state = make_state(agent, utterance, context)
    st.TreeTraversal(agent).run(state)
    state.pop_detail()
    return state


class TestManagementStage:
    def test_acts_on_management_outcomes(self, toy_agent):
        state = outcome_state(toy_agent, "thanks")
        response = st.Management(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.MANAGEMENT
        assert "welcome" in response.text.lower()

    def test_other_outcomes_pass(self, toy_agent):
        state = outcome_state(toy_agent, "precaution for Aspirin")
        assert st.Management(toy_agent).run(state) is None


class TestElicitStage:
    def test_acts_on_elicit_outcomes(self, toy_agent):
        context = ConversationContext()
        state = outcome_state(toy_agent, "show me the precaution", context)
        response = st.Elicit(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.ELICIT
        assert response.elicit_concept == "Drug"
        assert context.pending_intent == "Precaution of Drug"

    def test_other_outcomes_pass(self, toy_agent):
        state = outcome_state(toy_agent, "precaution for Aspirin")
        assert st.Elicit(toy_agent).run(state) is None


class TestKeywordRedirectStage:
    def test_bare_entity_starts_the_proposal_flow(self, toy_agent):
        context = ConversationContext()
        state = make_state(toy_agent, "Benazepril", context)
        st.KeywordRoute(toy_agent).run(state)
        st.TreeTraversal(toy_agent).run(state)
        state.pop_detail()
        assert state.outcome.kind == "keyword"
        response = st.KeywordRedirect(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.PROPOSAL
        assert context.variables["proposal"]["value"] == "Benazepril"

    def test_entity_plus_concept_answers_directly(self, toy_agent):
        state = make_state(toy_agent, "Benazepril precaution")
        st.KeywordRoute(toy_agent).run(state)
        st.TreeTraversal(toy_agent).run(state)
        state.pop_detail()
        if state.outcome.kind == "keyword":
            response = st.KeywordRedirect(toy_agent).run(state)
            assert response is not None
            assert response.kind == ResponseKind.ANSWER


class TestAnswerStage:
    def test_executes_the_template_and_renders_rows(self, toy_agent):
        state = outcome_state(toy_agent, "precaution for Aspirin")
        response = st.Answer(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.ANSWER
        assert "Use with caution." in response.text
        assert response.sql is not None
        assert response.rows

    def test_other_outcomes_pass(self, toy_agent):
        state = outcome_state(toy_agent, "thanks")
        assert st.Answer(toy_agent).run(state) is None


class TestFallbackStage:
    def test_total_apology_for_unrecognized_input(self, toy_agent):
        state = make_state(toy_agent, "qwertyuiop zxcvb")
        response = st.Fallback(toy_agent).run(state)
        assert response is not None
        assert response.kind == ResponseKind.FALLBACK

    def test_entity_mention_still_gets_the_proposal(self, toy_agent):
        context = ConversationContext()
        state = make_state(toy_agent, "erm Benazepril I guess", context)
        response = st.Fallback(toy_agent).run(state)
        assert response is not None
        assert response.kind in (ResponseKind.PROPOSAL, ResponseKind.FALLBACK)


class TestDefaultStages:
    EXPECTED = [
        "classify", "management_rescue", "resolve_disambiguation", "proposal",
        "slot_fill", "context_reinterpret", "entity_rescue", "keyword_route",
        "slot_arbitration", "ask_disambiguation", "tree", "management",
        "elicit", "keyword", "answer", "fallback",
    ]

    def test_order_is_the_documented_one(self, toy_agent):
        assert [s.name for s in st.default_stages(toy_agent)] == self.EXPECTED

    def test_agent_pipeline_uses_the_default_stages(self, toy_agent):
        assert toy_agent.pipeline.stage_names() == self.EXPECTED

    def test_every_turn_carries_a_trace(self, toy_agent):
        response = toy_agent.respond(
            "precaution for Aspirin", ConversationContext()
        )
        trace = response.trace
        assert trace is not None
        assert trace.deciding_stage == "answer"
        assert [s.stage for s in trace.stages] == self.EXPECTED[: len(trace.stages)]
        assert trace.classifier_intent == "Precaution of Drug"

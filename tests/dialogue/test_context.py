"""Tests for the persistent conversation context (§5.2)."""

from repro.dialogue.context import ConversationContext, TurnRecord


class TestEntities:
    def test_remember_and_retrieve(self):
        ctx = ConversationContext()
        ctx.remember_entity("Drug", "Aspirin")
        assert ctx.entity("drug") == "Aspirin"

    def test_later_mentions_overwrite(self):
        ctx = ConversationContext()
        ctx.remember_entity("Age Group", "Adult")
        ctx.remember_entity("Age Group", "Pediatric")
        assert ctx.entity("Age Group") == "Pediatric"

    def test_remember_many(self):
        ctx = ConversationContext()
        ctx.remember_entities({"Drug": "Aspirin", "Indication": "Fever"})
        assert ctx.entity("Indication") == "Fever"

    def test_forget(self):
        ctx = ConversationContext()
        ctx.remember_entity("Drug", "Aspirin")
        ctx.forget_entity("DRUG")
        assert ctx.entity("Drug") is None

    def test_unknown_entity_is_none(self):
        assert ConversationContext().entity("Drug") is None


class TestSlotFilling:
    def test_begin_and_end(self):
        ctx = ConversationContext()
        ctx.begin_slot_filling("Precaution of Drug", "Drug")
        assert ctx.is_slot_filling
        assert ctx.pending_intent == "Precaution of Drug"
        assert ctx.pending_entity == "Drug"
        ctx.end_slot_filling()
        assert not ctx.is_slot_filling


class TestHistory:
    def test_record_turn_updates_state(self):
        ctx = ConversationContext()
        ctx.record_turn(TurnRecord(
            user="precautions for aspirin",
            agent="Here they are",
            intent="Precaution of Drug",
        ))
        assert ctx.turn_count == 1
        assert ctx.current_intent == "Precaution of Drug"
        assert ctx.last_response == "Here they are"
        assert ctx.last_turn().user == "precautions for aspirin"

    def test_intentless_turn_keeps_current_intent(self):
        ctx = ConversationContext()
        ctx.record_turn(TurnRecord(user="a", agent="b", intent="X"))
        ctx.record_turn(TurnRecord(user="c", agent="d", intent=None))
        assert ctx.current_intent == "X"

    def test_empty_history(self):
        ctx = ConversationContext()
        assert ctx.last_turn() is None
        assert ctx.turn_count == 0

    def test_mark_last_turn(self):
        ctx = ConversationContext()
        ctx.record_turn(TurnRecord(user="a", agent="b"))
        ctx.record_turn(TurnRecord(user="c", agent="d"))
        ctx.mark_last_turn("down")
        assert [t.feedback for t in ctx.history] == [None, "down"]

    def test_only_the_last_turn_keeps_its_trace(self):
        ctx = ConversationContext()
        traces = [object() for _ in range(4)]
        for index, trace in enumerate(traces):
            ctx.record_turn(TurnRecord(user=f"u{index}", agent="a", trace=trace))
            assert ctx.last_trace is trace
        assert [t.trace for t in ctx.history] == [None, None, None, traces[-1]]

    def test_feedback_serialized_only_when_set(self):
        unmarked = TurnRecord(user="a", agent="b")
        assert "feedback" not in unmarked.to_dict()
        marked = TurnRecord(user="a", agent="b", feedback="up")
        assert marked.to_dict()["feedback"] == "up"
        assert TurnRecord.from_dict(marked.to_dict()) == marked
        assert TurnRecord.from_dict(unmarked.to_dict()).feedback is None


class TestLifecycle:
    def test_reset_clears_state_but_keeps_history(self):
        ctx = ConversationContext()
        ctx.remember_entity("Drug", "Aspirin")
        ctx.begin_slot_filling("X", "Drug")
        ctx.variables["proposal"] = {"x": 1}
        ctx.record_turn(TurnRecord(user="a", agent="b", intent="X"))
        ctx.reset()
        assert ctx.entities == {}
        assert not ctx.is_slot_filling
        assert ctx.variables == {}
        assert ctx.current_intent is None
        assert ctx.turn_count == 1  # history preserved

    def test_snapshot(self):
        ctx = ConversationContext()
        ctx.remember_entity("Drug", "Aspirin")
        snap = ctx.snapshot()
        assert snap["entities"] == {"Drug": "Aspirin"}
        assert snap["turns"] == 0
        snap["entities"]["Drug"] = "changed"
        assert ctx.entity("Drug") == "Aspirin"  # snapshot is a copy

"""Persistent conversation context.

§4.1/§5.2: "dialogue uses a context data structure to capture and persist
relevant information across turns ... allowing users to refer to
entities mentioned in prior turns", which enables both slot filling
across utterances (lines 02–05 of the §6.3 sample) and incremental query
modification ("I mean pediatric", "how about for Fluocinonide?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.pipeline import TurnTrace


@dataclass
class TurnRecord:
    """One completed turn: what the user said and how the agent replied.

    ``feedback`` is the user's thumbs mark on the turn ("up", "down" or
    None), the §7.2 Equation 1 input.  ``trace`` carries the per-stage
    :class:`~repro.engine.pipeline.TurnTrace` when the turn ran through
    the staged pipeline, until the next turn is recorded; it is
    excluded from equality so transcripts compare on observable
    behaviour only.
    """

    user: str
    agent: str
    intent: str | None = None
    confidence: float = 0.0
    entities: dict[str, str] = field(default_factory=dict)
    outcome_kind: str = ""
    feedback: str | None = None
    trace: "TurnTrace | None" = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """The turn's observable behaviour (``trace`` is per-process
        telemetry, not conversation state, and is not persisted)."""
        data = {
            "user": self.user,
            "agent": self.agent,
            "intent": self.intent,
            "confidence": self.confidence,
            "entities": dict(self.entities),
            "outcome_kind": self.outcome_kind,
        }
        if self.feedback is not None:
            data["feedback"] = self.feedback
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TurnRecord":
        return cls(
            user=data["user"],
            agent=data["agent"],
            intent=data.get("intent"),
            confidence=data.get("confidence", 0.0),
            entities=dict(data.get("entities") or {}),
            outcome_kind=data.get("outcome_kind", ""),
            feedback=data.get("feedback"),
        )


class ConversationContext:
    """Mutable per-session state shared by the dialogue tree and engine.

    Tracks the current intent, the entity slots accumulated so far
    (concept → instance value), the intent awaiting slot filling, and the
    full turn history.
    """

    def __init__(self) -> None:
        self.current_intent: str | None = None
        self.pending_intent: str | None = None
        self.pending_entity: str | None = None
        self.entities: dict[str, str] = {}
        self.history: list[TurnRecord] = []
        self.variables: dict[str, Any] = {}
        self.last_response: str = ""

    # -- entities -----------------------------------------------------------

    def remember_entity(self, concept: str, value: str) -> None:
        """Persist an entity slot; later mentions overwrite earlier ones."""
        self.entities[concept] = value

    def remember_entities(self, entities: dict[str, str]) -> None:
        for concept, value in entities.items():
            self.remember_entity(concept, value)

    def entity(self, concept: str) -> str | None:
        """The remembered instance value of ``concept``, if any."""
        for key, value in self.entities.items():
            if key.lower() == concept.lower():
                return value
        return None

    def forget_entity(self, concept: str) -> None:
        for key in list(self.entities):
            if key.lower() == concept.lower():
                del self.entities[key]

    # -- intent / slot filling ----------------------------------------------------

    def begin_slot_filling(self, intent: str, entity: str) -> None:
        """Mark that the agent is eliciting ``entity`` for ``intent``."""
        self.pending_intent = intent
        self.pending_entity = entity

    def end_slot_filling(self) -> None:
        self.pending_intent = None
        self.pending_entity = None

    @property
    def is_slot_filling(self) -> bool:
        return self.pending_intent is not None

    # -- history ------------------------------------------------------------------

    def record_turn(self, record: TurnRecord) -> None:
        # Only the last turn's trace is ever read (``last_trace``), so
        # the superseded one is dropped: a long session keeps one trace.
        if self.history:
            self.history[-1].trace = None
        self.history.append(record)
        self.last_response = record.agent
        if record.intent is not None:
            self.current_intent = record.intent

    @property
    def turn_count(self) -> int:
        return len(self.history)

    def last_turn(self) -> TurnRecord | None:
        return self.history[-1] if self.history else None

    def mark_last_turn(self, feedback: str) -> None:
        """Attach thumbs feedback ("up"/"down") to the most recent turn."""
        if feedback not in ("up", "down"):
            raise ValueError("feedback must be 'up' or 'down'")
        if not self.history:
            raise ValueError("no interaction to mark")
        self.history[-1].feedback = feedback

    @property
    def last_trace(self) -> "TurnTrace | None":
        """The stage trace of the most recent turn, if one was recorded."""
        last = self.last_turn()
        return last.trace if last is not None else None

    # -- lifecycle ------------------------------------------------------------------

    def reset(self) -> None:
        """Clear everything except history (a topic change, not a new session)."""
        self.current_intent = None
        self.end_slot_filling()
        self.entities.clear()
        self.variables.clear()

    def snapshot(self) -> dict[str, Any]:
        """A read-only view of the mutable state, for logging/testing."""
        return {
            "current_intent": self.current_intent,
            "pending_intent": self.pending_intent,
            "pending_entity": self.pending_entity,
            "entities": dict(self.entities),
            "turns": self.turn_count,
        }

    def to_dict(self) -> dict[str, Any]:
        """The full mutable state for durable persistence.

        ``variables`` is passed through as-is (it may contain tuples —
        ``repro.persistence.snapshot`` owns the JSON-safe encoding);
        restoring this dict via :meth:`from_dict` yields a context that
        drives the turn pipeline identically to the original.
        """
        return {
            "current_intent": self.current_intent,
            "pending_intent": self.pending_intent,
            "pending_entity": self.pending_entity,
            "entities": dict(self.entities),
            "variables": dict(self.variables),
            "last_response": self.last_response,
            "history": [record.to_dict() for record in self.history],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConversationContext":
        context = cls()
        context.current_intent = data.get("current_intent")
        context.pending_intent = data.get("pending_intent")
        context.pending_entity = data.get("pending_entity")
        context.entities = dict(data.get("entities") or {})
        context.variables = dict(data.get("variables") or {})
        context.last_response = data.get("last_response", "")
        context.history = [
            TurnRecord.from_dict(turn) for turn in data.get("history") or []
        ]
        return context

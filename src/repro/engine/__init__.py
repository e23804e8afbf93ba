"""Online conversation engine.

The online process of Figure 1(b), realized as an explicit stage
pipeline: a user utterance is classified into an intent, its entities
are recognized (with synonym, fuzzy and partial-name matching), the
context stages reinterpret/rescue/arbitrate, the dialogue tree chooses
an action, the structured query template is populated and executed
against the KB, and a natural-language response is generated — with a
per-stage :class:`~repro.engine.pipeline.TurnTrace` recorded for every
turn.
"""

from repro.engine.agent import AgentResponse, ConversationAgent, Session
from repro.engine.feedback import InteractionRecord, interaction_records
from repro.engine.kinds import ResponseKind, validate_kind
from repro.engine.logging import (
    load_log,
    mine_negative_interactions,
    retrain_from_log,
    save_log,
)
from repro.engine.pipeline import (
    Stage,
    StageTrace,
    TurnPipeline,
    TurnState,
    TurnTrace,
    render_trace,
)
from repro.engine.recognizer import EntityRecognizer, RecognitionResult
from repro.engine.stages import default_stages

__all__ = [
    "AgentResponse",
    "ConversationAgent",
    "EntityRecognizer",
    "InteractionRecord",
    "RecognitionResult",
    "ResponseKind",
    "Session",
    "Stage",
    "StageTrace",
    "TurnPipeline",
    "TurnState",
    "TurnTrace",
    "default_stages",
    "interaction_records",
    "load_log",
    "mine_negative_interactions",
    "render_trace",
    "retrain_from_log",
    "save_log",
    "validate_kind",
]

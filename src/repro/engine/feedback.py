"""User feedback capture (thumbs up / thumbs down).

§7.2: success is measured from the feedback buttons — "we consider the
negative feedback more credible" — so every turn can carry a feedback
mark.  The mark lives on the session's own
:class:`~repro.dialogue.context.TurnRecord` (journaled with it in
durable mode); :func:`interaction_records` flattens a transcript into
the :class:`InteractionRecord` rows the §7 analyses and the §9
improvement loop (:mod:`repro.engine.logging`) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.dialogue.context import TurnRecord


@dataclass
class InteractionRecord:
    """One logged user interaction."""

    utterance: str
    response: str
    intent: str | None
    confidence: float
    outcome_kind: str
    feedback: str | None = None  # "up", "down" or None
    session_id: int = 0
    sme_label: str | None = None  # "positive"/"negative" when SME-reviewed


def interaction_records(
    session_id: int, history: Iterable[TurnRecord]
) -> list[InteractionRecord]:
    """One :class:`InteractionRecord` per turn of ``history``."""
    return [
        InteractionRecord(
            utterance=turn.user,
            response=turn.agent,
            intent=turn.intent,
            confidence=turn.confidence,
            outcome_kind=turn.outcome_kind,
            feedback=turn.feedback,
            session_id=session_id,
        )
        for turn in history
    ]

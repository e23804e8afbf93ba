"""Interaction-log persistence and log-driven improvement.

§9 (lessons learned) names the next step for the system: "learning from
the system usage logs, and using that as a feedback to further improve
the system".  This module implements that loop:

* :func:`save_log` / :func:`load_log` persist interaction records as
  JSON lines (the raw material of the §7 analyses; ``repro sessions
  --export`` writes them from a data dir's session journals),
* :func:`mine_negative_interactions` clusters the negatively-marked
  utterances for SME review,
* :func:`harvest_training_candidates` turns reviewed log entries into
  labelled training examples and folds them into a conversation space —
  closing exactly the loop the paper describes for "side effects"
  (§6.3: "Through such user testing, synonyms and alternative phrasings
  are identified and added to the training data").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.atomic import atomic_write
from repro.bootstrap.space import ConversationSpace
from repro.engine.feedback import InteractionRecord
from repro.errors import EngineError


def save_log(records: list[InteractionRecord], path: str | Path) -> int:
    """Write ``records`` as JSON lines; returns the number written.

    The write is atomic (:func:`~repro.atomic.atomic_write`): a crash
    mid-write leaves the previous log intact instead of a truncated
    file.
    """
    atomic_write(
        path,
        "".join(json.dumps(asdict(record)) + "\n" for record in records)
        .encode("utf-8"),
    )
    return len(records)


def load_log(path: str | Path) -> list[InteractionRecord]:
    """Read a JSON-lines log written by :func:`save_log`."""
    records: list[InteractionRecord] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise EngineError(
                        f"{path}: line {line_number} is not valid JSON"
                    ) from exc
                records.append(InteractionRecord(
                    utterance=data["utterance"],
                    response=data.get("response", ""),
                    intent=data.get("intent"),
                    confidence=data.get("confidence", 0.0),
                    outcome_kind=data.get("outcome_kind", ""),
                    feedback=data.get("feedback"),
                    session_id=data.get("session_id", 0),
                    sme_label=data.get("sme_label"),
                ))
    except FileNotFoundError as exc:
        raise EngineError(f"log file not found: {path}") from exc
    return records


@dataclass
class NegativeCluster:
    """Negatively-marked interactions grouped by detected intent."""

    intent: str
    utterances: list[str] = field(default_factory=list)
    outcome_kinds: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.utterances)


def mine_negative_interactions(
    records: list[InteractionRecord], include_sme: bool = True
) -> list[NegativeCluster]:
    """Group negative interactions by intent, largest cluster first.

    These clusters are what SMEs review to decide which phrasings and
    synonyms the training data is missing.
    """
    clusters: dict[str, NegativeCluster] = {}
    for record in records:
        negative = record.feedback == "down" or (
            include_sme and record.sme_label == "negative"
        )
        if not negative:
            continue
        key = record.intent or "<none>"
        cluster = clusters.setdefault(key, NegativeCluster(intent=key))
        cluster.utterances.append(record.utterance)
        cluster.outcome_kinds.append(record.outcome_kind)
    return sorted(clusters.values(), key=lambda c: (-c.size, c.intent))


def harvest_training_candidates(
    records: list[InteractionRecord],
    space: ConversationSpace,
    min_confidence: float = 0.6,
) -> list[tuple[str, str]]:
    """Propose (utterance, intent) training candidates from the log.

    Positive interactions (not marked negative, answered, confidently
    classified) are trustworthy self-training material: the user got an
    answer for that intent and did not complain.  Returns candidates not
    already in the space's training set; feeding them to
    :meth:`ConversationSpace.add_training_examples` closes the loop.
    """
    existing = {
        (e.utterance.lower(), e.intent) for e in space.training_examples
    }
    known_intents = {i.name for i in space.intents}
    candidates: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for record in records:
        if record.feedback == "down" or record.sme_label == "negative":
            continue
        if record.outcome_kind != "answer":
            continue
        if record.intent is None or record.intent not in known_intents:
            continue
        if record.confidence < min_confidence:
            continue
        key = (record.utterance.lower(), record.intent)
        if key in existing or key in seen:
            continue
        seen.add(key)
        candidates.append((record.utterance, record.intent))
    return candidates


def retrain_from_log(
    records: list[InteractionRecord],
    space: ConversationSpace,
    min_confidence: float = 0.6,
    limit: int | None = None,
) -> int:
    """Harvest candidates and fold them into the space's training set.

    Returns how many examples were added.  The caller re-trains the
    classifier (e.g. rebuilds the agent) afterwards.
    """
    candidates = harvest_training_candidates(records, space, min_confidence)
    if limit is not None:
        candidates = candidates[:limit]
    for utterance, intent in candidates:
        space.add_training_examples(intent, [utterance])
    return len(candidates)


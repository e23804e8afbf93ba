"""The online turn pipeline: typed state, stages, and per-turn tracing.

Figure 1(b) describes the online process as an ordered pipeline —
intent classification → entity recognition → dialogue-tree traversal →
query execution → response generation.  This module makes that pipeline
first-class: a :class:`TurnState` flows through an ordered list of
:class:`Stage` objects, each of which either *passes* (possibly after
updating the state) or produces the final
:class:`AgentResponse` for the turn.  The concrete stages live in
:mod:`repro.engine.stages`; :class:`~repro.engine.agent.ConversationAgent`
is reduced to construction plus pipeline assembly.

Every turn produces a :class:`TurnTrace` recording, per stage, what it
decided and how long it took — the observability backbone for the
serving layer's per-stage histograms (``GET /metrics``), the
``/chat`` ``debug`` flag, ``python -m repro chat --trace``, and the
evaluation harness's where-do-turns-die reports.

Stage timing flows through an injectable ``clock`` (the lint pass's
L002 rule), so tests can drive it deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dialogue.context import ConversationContext
from repro.dialogue.tree import NodeOutcome
from repro.engine.kinds import validate_kind
from repro.engine.recognizer import RecognitionResult
from repro.errors import EngineError

#: Stage-trace outcome labels.
PASS, UPDATE, FINAL = "pass", "update", "final"

#: A per-turn incremental-output callback: ``sink(kind, data)`` receives
#: chunks (e.g. ``("rows", {"rows": [...]})``) while the turn is still
#: executing.  The serving layer's streaming endpoint installs one; the
#: sink must be cheap and must never raise (a streaming transport error
#: must not abort the committed turn).
ChunkSink = Callable[[str, dict], None]


@dataclass
class AgentResponse:
    """One agent turn.

    ``kind`` is validated against the closed
    :class:`~repro.engine.kinds.ResponseKind` set at construction time.
    ``trace`` is attached by the pipeline and excluded from equality so
    two behaviourally identical turns compare equal regardless of
    timing.
    """

    text: str
    intent: str | None
    confidence: float
    kind: str
    entities: dict[str, str] = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)
    sql: str | None = None
    elicit_concept: str | None = None
    trace: "TurnTrace | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_kind(self.kind)


@dataclass
class StageTrace:
    """What one stage did during one turn."""

    stage: str
    outcome: str  # PASS, UPDATE or FINAL
    duration: float  # seconds
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "outcome": self.outcome,
            "duration": self.duration,
            "detail": dict(self.detail),
        }


@dataclass
class TurnTrace:
    """The full per-stage record of one turn."""

    utterance: str
    stages: list[StageTrace] = field(default_factory=list)
    duration: float = 0.0
    deciding_stage: str | None = None
    kind: str | None = None
    intent: str | None = None
    confidence: float = 0.0
    classifier_intent: str | None = None
    classifier_confidence: float = 0.0
    entity_hits: int = 0
    concept_hits: int = 0
    sql: str | None = None

    def stage_named(self, name: str) -> StageTrace | None:
        for stage in self.stages:
            if stage.stage == name:
                return stage
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "utterance": self.utterance,
            "duration": self.duration,
            "deciding_stage": self.deciding_stage,
            "kind": self.kind,
            "intent": self.intent,
            "confidence": self.confidence,
            "classifier_intent": self.classifier_intent,
            "classifier_confidence": self.classifier_confidence,
            "entity_hits": self.entity_hits,
            "concept_hits": self.concept_hits,
            "sql": self.sql,
            "stages": [stage.to_dict() for stage in self.stages],
        }


@dataclass
class TurnState:
    """Everything a stage may read or refine while processing one turn.

    ``intent``/``confidence`` start as the raw classifier output and are
    refined by the context stages; ``distribution`` is the classifier's
    probability vector for the utterance, which stages rank with
    ``classifier.top_k`` instead of scoring the utterance again;
    ``recognition`` is the recognizer's
    result (stages may resolve ambiguities into it); ``outcome`` is set
    by the tree-traversal stage for the acting stages to consume.
    """

    utterance: str
    context: ConversationContext
    intent: str | None = None
    confidence: float = 0.0
    distribution: Any = field(default=None, repr=False, compare=False)
    recognition: RecognitionResult = field(default_factory=RecognitionResult)
    outcome: NodeOutcome | None = None
    detail: dict[str, Any] = field(default_factory=dict)
    #: Streaming hook: when set, stages may emit incremental chunks
    #: (row batches from the answer stage) through :meth:`emit_chunk`
    #: while the turn runs.  ``None`` on every non-streaming turn, so
    #: replayed (recovery) and golden-transcript turns behave
    #: identically with or without a listener.
    chunk_sink: "ChunkSink | None" = field(
        default=None, repr=False, compare=False
    )

    def annotate(self, **items: Any) -> None:
        """Attach trace detail for the currently running stage."""
        self.detail.update(items)

    def emit_chunk(self, kind: str, data: dict) -> None:
        """Send one incremental chunk to the streaming listener, if any.

        Sink errors are deliberately not caught here: the serving layer
        wraps its sink so a broken client can never raise into the turn.
        """
        if self.chunk_sink is not None:
            self.chunk_sink(kind, data)

    def pop_detail(self) -> dict[str, Any]:
        detail, self.detail = self.detail, {}
        return detail

    def adopt(self, intent: str | None, confidence: float) -> None:
        """Replace the working classification."""
        self.intent = intent
        self.confidence = confidence

    def _fingerprint(self) -> tuple:
        return (
            self.intent,
            self.confidence,
            len(self.recognition.values),
            len(self.recognition.concepts),
            len(self.recognition.ambiguous),
            self.outcome is not None,
        )


class Stage:
    """One step of the turn pipeline.

    Subclasses set :attr:`name` and implement :meth:`run`, returning
    either ``None`` (pass — possibly after refining the state) or the
    final :class:`AgentResponse` for the turn.  Stages are constructed
    once per agent and must stay stateless across turns: anything
    per-turn belongs on the :class:`TurnState`.
    """

    name: str = "stage"

    def run(self, state: TurnState) -> AgentResponse | None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name}>"


class TurnPipeline:
    """An ordered list of stages with per-stage tracing.

    The final stage must be total (always return a response); the
    pipeline raises :class:`EngineError` if every stage passes, rather
    than inventing a response of its own.
    """

    def __init__(
        self,
        stages: list[Stage],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not stages:
            raise EngineError("a turn pipeline needs at least one stage")
        self.stages = list(stages)
        self._clock = clock

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def run(
        self,
        utterance: str,
        context: ConversationContext,
        chunk_sink: "ChunkSink | None" = None,
    ) -> AgentResponse:
        """Process one utterance; the returned response carries its trace.

        ``chunk_sink`` (optional) receives incremental chunks — row
        batches from the answer stage — while the turn executes; the
        final response is unchanged by its presence.
        """
        state = TurnState(
            utterance=utterance, context=context, chunk_sink=chunk_sink
        )
        trace = TurnTrace(utterance=utterance)
        started = self._clock()
        response: AgentResponse | None = None
        for stage in self.stages:
            before = state._fingerprint()
            stage_started = self._clock()
            response = stage.run(state)
            elapsed = self._clock() - stage_started
            if response is not None:
                outcome = FINAL
            elif state._fingerprint() != before or state.detail:
                outcome = UPDATE
            else:
                outcome = PASS
            trace.stages.append(
                StageTrace(stage.name, outcome, elapsed, state.pop_detail())
            )
            if response is not None:
                trace.deciding_stage = stage.name
                break
        if response is None:
            raise EngineError(
                "turn pipeline exhausted its stages without a response "
                f"(stages: {self.stage_names()})"
            )
        trace.duration = self._clock() - started
        trace.kind = response.kind
        trace.intent = response.intent
        trace.confidence = response.confidence
        trace.entity_hits = len(state.recognition.values)
        trace.concept_hits = len(state.recognition.concepts)
        trace.sql = response.sql
        classify = trace.stage_named("classify")
        if classify is not None:
            trace.classifier_intent = classify.detail.get("intent")
            trace.classifier_confidence = classify.detail.get("confidence", 0.0)
        response.trace = trace
        return response


def render_trace(trace: TurnTrace) -> str:
    """A compact, human-readable rendering of one turn trace (the
    ``python -m repro chat --trace`` output)."""
    lines = [
        f"turn: {trace.duration * 1000:.2f} ms, decided by "
        f"[{trace.deciding_stage}] -> kind={trace.kind} "
        f"intent={trace.intent!r} confidence={trace.confidence:.2f}"
    ]
    lines.append(
        f"  classifier: {trace.classifier_intent!r} "
        f"({trace.classifier_confidence:.2f}); recognizer: "
        f"{trace.entity_hits} entities, {trace.concept_hits} concepts"
    )
    for stage in trace.stages:
        marker = {PASS: " ", UPDATE: "~", FINAL: "*"}.get(stage.outcome, "?")
        detail = ""
        if stage.detail:
            parts = ", ".join(f"{k}={v!r}" for k, v in stage.detail.items())
            detail = f"  ({parts})"
        lines.append(
            f"  {marker} {stage.stage:<20} {stage.outcome:<7}"
            f"{stage.duration * 1000:9.3f} ms{detail}"
        )
    if trace.sql:
        lines.append(f"  sql: {trace.sql}")
    return "\n".join(lines)

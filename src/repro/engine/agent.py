"""The conversation agent: the fully-automated online process.

Wires together every component of Figure 1(b): intent classification,
entity recognition, dialogue-tree traversal with persistent context,
structured-query-template execution against the KB, and response
generation — plus the §6 behaviours: slot filling across turns,
incremental query modification, keyword-query elicitation (the
"cogentin" flow of User 480), partial-entity disambiguation, definition
repair, and thumbs feedback capture.

The turn logic itself lives in the staged pipeline
(:mod:`repro.engine.pipeline` / :mod:`repro.engine.stages`); this module
is construction and session management: :meth:`ConversationAgent.build`
trains and assembles the components, ``__init__`` assembles the default
stage pipeline over them, and :meth:`ConversationAgent.respond` runs
one traced turn through it.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

from repro.bootstrap.space import ConversationSpace
from repro.dialogue.context import ConversationContext, TurnRecord
from repro.dialogue.logic_table import DialogueLogicTable
from repro.dialogue.management import (
    MANAGEMENT_RESPONSES,
    default_management_intents,
    management_training_examples,
)
from repro.dialogue.tree import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    DialogueTree,
    build_dialogue_tree,
)
from repro.engine.kinds import ResponseKind
from repro.engine.pipeline import AgentResponse, TurnPipeline, TurnTrace
from repro.engine.recognizer import EntityRecognizer
from repro.engine.stages import (
    CONTEXT_CONFIDENCE,
    TRUST_THRESHOLD,
    default_stages,
)
from repro.errors import EngineError, KBError, NLQError, TemplateError
from repro.kb.backend import KBHandle
from repro.kb.database import Database
from repro.nlp.classifier import IntentClassifier
from repro.nlq.templates import StructuredQueryTemplate, templates_for_intent

__all__ = [
    "AgentResponse",
    "ConversationAgent",
    "Session",
    "SessionIdAllocator",
    "ResponseKind",
    "CONTEXT_CONFIDENCE",
    "TRUST_THRESHOLD",
]


class SessionIdAllocator:
    """Thread-safe monotonic session-id source.

    ``start``/``stride`` carve the id space into residue classes so N
    serving workers can allocate concurrently without coordination
    (worker *i* of *N* hands out ids ≡ *i* (mod *N*)).  The default
    ``start=1, stride=1`` reproduces the historical single-process
    sequence.  Subclasses may override :meth:`reserve` to persist a
    high-water mark before ids from a batch are handed out (see
    :class:`repro.persistence.store.DurableSessionIdAllocator`).
    """

    def __init__(self, start: int = 1, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if start < 0:
            raise ValueError("start must be >= 0")
        self._lock = threading.Lock()
        self._stride = stride
        self._next = start if start > 0 else stride

    @property
    def stride(self) -> int:
        return self._stride

    def allocate(self) -> int:
        with self._lock:
            session_id = self._next
            self._next += self._stride
            self.reserve(self._next)
            return session_id

    def peek(self) -> int:
        """The id the next :meth:`allocate` call would return."""
        with self._lock:
            return self._next

    def reserve(self, up_to: int) -> None:
        """Ensure ids below ``up_to`` are never reissued (no-op here)."""


class ConversationAgent:
    """A trained, queryable conversation agent over one KB.

    Build one with :meth:`build`, then open :class:`Session` objects for
    each user.  The agent itself is stateless across sessions; all
    per-conversation state lives in the session's context.  Each turn
    runs through the agent's :class:`~repro.engine.pipeline.TurnPipeline`
    (assembled from :func:`~repro.engine.stages.default_stages`), so the
    response carries a per-stage :class:`~repro.engine.pipeline.TurnTrace`.
    """

    def __init__(
        self,
        space: ConversationSpace,
        database: "Database | KBHandle",
        classifier: IntentClassifier,
        recognizer: EntityRecognizer,
        tree: DialogueTree,
        logic_table: DialogueLogicTable,
        templates: dict[str, list[StructuredQueryTemplate]],
        glossary: dict[str, str],
        agent_name: str = "Assistant",
        domain: str = "knowledge base",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.space = space
        # Every KB access goes through a copy-on-write handle, which
        # freezes the database, so a live refresh can atomically swap
        # in the next one under running turns.
        self.database = (
            database if isinstance(database, KBHandle) else KBHandle(database)
        )
        self.classifier = classifier
        self.recognizer = recognizer
        self.tree = tree
        self.logic_table = logic_table
        self.templates = templates
        self.glossary = {k.lower(): v for k, v in glossary.items()}
        self.agent_name = agent_name
        self.domain = domain
        self.pipeline = TurnPipeline(default_stages(self), clock=clock)
        # Session ids are allocated under the allocator's lock: concurrent
        # requests on the serving layer open sessions from many threads at
        # once, and two sessions sharing an id would cross their durable
        # state.  The durable serving layer swaps in an allocator that
        # persists its high-water mark so ids survive restarts.
        self.id_allocator = SessionIdAllocator()

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        space: ConversationSpace,
        database: "Database | KBHandle",
        glossary: dict[str, str] | None = None,
        agent_name: str = "Assistant",
        domain: str = "knowledge base",
        classifier: IntentClassifier | None = None,
        confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
        clock: Callable[[], float] = time.perf_counter,
        model_path: str | Path | None = None,
    ) -> "ConversationAgent":
        """Assemble and train an agent from a bootstrapped space.

        Adds the built-in management intents and their training examples
        to the space (when absent), trains the classifier (or loads it from
        ``model_path``; a fitted ``classifier`` is used as it is), builds
        the recognizer, generates the dialogue logic table + tree, and
        pre-generates one structured query template per intent pattern.
        """
        for intent in default_management_intents():
            if not space.has_intent(intent.name):
                space.add_intent(intent)
        existing = {(e.utterance.lower(), e.intent) for e in space.training_examples}
        for utterance, intent_name in management_training_examples():
            if (utterance.lower(), intent_name) not in existing:
                space.add_training_examples(intent_name, [utterance])

        if classifier is None:
            classifier = space.train_classifier(model_path=model_path)
        recognizer = EntityRecognizer(space.entities)
        logic_table = DialogueLogicTable.from_space(space)
        tree = build_dialogue_tree(
            logic_table, confidence_threshold=confidence_threshold
        )

        templates: dict[str, list[StructuredQueryTemplate]] = {}
        for intent in space.intents:
            if intent.custom_templates:
                templates[intent.name] = list(intent.custom_templates)
                continue
            if not intent.patterns:
                continue
            try:
                templates[intent.name] = templates_for_intent(
                    intent, space.ontology, database
                )
            except (NLQError, TemplateError):
                # Intents whose patterns cannot be realized as SQL fall
                # back to an apologetic answer at run time.
                templates[intent.name] = []

        # Pre-warm the compiled-plan cache: every shipped template is
        # parsed/resolved/planned now, so the first live request for any
        # intent never pays compilation latency (and template SQL that
        # cannot compile surfaces at build time in logs, not mid-turn).
        prepare = getattr(database, "prepare", None)
        if prepare is not None:
            for intent_templates in templates.values():
                for template in intent_templates:
                    try:
                        prepare(template.sql)
                    except KBError:
                        # Uncompilable template SQL falls back to the
                        # apologetic answer at run time, same as intents
                        # with no template at all.
                        continue

        full_glossary = dict(glossary or {})
        for concept in space.ontology.concepts():
            if concept.description and concept.name.lower() not in (
                k.lower() for k in full_glossary
            ):
                full_glossary[concept.name] = concept.description
        return cls(
            space=space,
            database=database,
            classifier=classifier,
            recognizer=recognizer,
            tree=tree,
            logic_table=logic_table,
            templates=templates,
            glossary=full_glossary,
            agent_name=agent_name,
            domain=domain,
            clock=clock,
        )

    # -- sessions --------------------------------------------------------------

    def allocate_session_id(self) -> int:
        """Hand out the next session id (thread-safe)."""
        return self.id_allocator.allocate()

    def session(self) -> "Session":
        """Open a new conversation session."""
        return Session(self, self.allocate_session_id())

    def greeting(self) -> str:
        return MANAGEMENT_RESPONSES["greeting"].format(
            agent_name=self.agent_name, domain=self.domain
        )

    # -- core turn logic -------------------------------------------------------

    def respond(
        self,
        utterance: str,
        context: ConversationContext,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> AgentResponse:
        """Produce the agent turn for ``utterance`` under ``context``.

        The returned response carries the turn's
        :class:`~repro.engine.pipeline.TurnTrace` in ``response.trace``.
        ``chunk_sink`` (optional) receives incremental row-batch chunks
        while the turn executes (the streaming serving path); it never
        changes the returned response.
        """
        return self.pipeline.run(utterance, context, chunk_sink=chunk_sink)


class Session:
    """One user conversation: context, transcript and feedback."""

    def __init__(self, agent: ConversationAgent, session_id: int) -> None:
        self.agent = agent
        self.id = session_id
        self.context = ConversationContext()

    def open(self) -> str:
        """The agent's conversation-opening utterance (pattern A1.0.0)."""
        return self.agent.greeting()

    def ask(
        self,
        utterance: str,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> AgentResponse:
        """Process one user utterance and record the turn."""
        if not utterance or not utterance.strip():
            raise EngineError("utterance must be non-empty")
        response = self.agent.respond(utterance, self.context, chunk_sink)
        self.context.record_turn(
            TurnRecord(
                user=utterance,
                agent=response.text,
                intent=response.intent,
                confidence=response.confidence,
                entities=dict(response.entities),
                outcome_kind=response.kind,
                trace=response.trace,
            )
        )
        return response

    def thumbs_up(self) -> None:
        self.context.mark_last_turn("up")

    def thumbs_down(self) -> None:
        self.context.mark_last_turn("down")

    def transcript(self) -> list[TurnRecord]:
        return list(self.context.history)

    def last_trace(self) -> TurnTrace | None:
        """The per-stage trace of the most recent turn, if any."""
        last = self.context.last_turn()
        return last.trace if last is not None else None

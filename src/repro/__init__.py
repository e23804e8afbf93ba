"""repro — an ontology-based conversation system for knowledge bases.

A faithful, self-contained reproduction of *"An Ontology-Based
Conversation System for Knowledge Bases"* (SIGMOD 2020): a
domain-agnostic pipeline that bootstraps a conversation interface over a
relational knowledge base from its domain ontology.

Quickstart::

    from repro.medical import build_mdx_agent

    agent = build_mdx_agent()
    session = agent.session()
    print(session.open())
    print(session.ask("show me drugs that treat psoriasis").text)

Subsystems
----------
``repro.kb``
    In-memory relational engine (schema, constraints, SQL subset).
``repro.nlp``
    Tokenization, TF-IDF features, the intent classifier, metrics.
``repro.ontology``
    OWL-like ontology model, data-driven generation, key-concept analysis.
``repro.bootstrap``
    Conversation-space bootstrapping: query patterns, intents, training
    examples, entities, synonyms, SME feedback.
``repro.nlq``
    Ontology-driven NL→SQL and structured query templates.
``repro.dialogue``
    Dialogue logic table, dialogue tree, persistent context,
    conversation management.
``repro.engine``
    The online conversation agent (recognition, slot filling, answers).
``repro.medical``
    The Conversational MDX use case over a synthetic medical KB.
``repro.eval``
    Workload simulation, success rates, Table 5 / Figures 11–12 harness.
``repro.serving``
    Concurrent JSON-over-HTTP serving: session store, query cache,
    metrics, graceful shutdown (``python -m repro serve``).
"""

from repro._lazy import lazy_exports

# Resolved on first access, so ``import repro.<submodule>`` loads only
# what that submodule needs.
__getattr__ = lazy_exports(globals(), {
    "repro.bootstrap": ("ConversationSpace", "bootstrap_conversation_space"),
    "repro.engine": ("ConversationAgent", "Session"),
    "repro.errors": ("ReproError",),
    "repro.kb": ("Column", "Database", "DataType", "ForeignKey", "TableSchema"),
    "repro.nlp": ("IntentClassifier",),
    "repro.ontology": ("Ontology", "OntologyBuilder", "generate_ontology"),
})

__version__ = "1.0.0"

__all__ = [
    "Column",
    "ConversationAgent",
    "ConversationSpace",
    "Database",
    "DataType",
    "ForeignKey",
    "IntentClassifier",
    "Ontology",
    "OntologyBuilder",
    "ReproError",
    "Session",
    "TableSchema",
    "bootstrap_conversation_space",
    "generate_ontology",
    "__version__",
]

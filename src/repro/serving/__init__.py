"""Concurrent conversation serving.

The serving layer of the reproduction: a stdlib-only asyncio
JSON-over-HTTP server that multiplexes many simultaneous user sessions
over one shared :class:`~repro.engine.agent.ConversationAgent` (the §6–§7 cloud
deployment, rebuilt).  Consistency model: the agent and its trained
artifacts are shared and immutable; every mutable per-conversation
:class:`~repro.dialogue.context.ConversationContext` lives in the
session store under a per-session lock; the query cache memoizes only
immutable result sets and is dropped wholesale on any KB write.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the router imports ``repro.serving.frontend``
# and must not load the app (and with it the model) through this file.
__getattr__ = lazy_exports(globals(), {
    "repro.serving.aio": ("AsyncConversationServer", "TokenBucket"),
    "repro.serving.frontend": ("ServingError",),
    "repro.serving.metrics": ("Counter", "Histogram", "MetricsRegistry"),
    "repro.serving.query_cache": ("CachingDatabase", "QueryCache", "make_key"),
    "repro.serving.server": ("ConversationApp",),
    "repro.serving.session_store": ("SessionEntry", "SessionStore"),
})

__all__ = [
    "AsyncConversationServer",
    "CachingDatabase",
    "ConversationApp",
    "TokenBucket",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "QueryCache",
    "ServingError",
    "SessionEntry",
    "SessionStore",
    "make_key",
]

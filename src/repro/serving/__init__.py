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

from repro.serving.aio import AsyncConversationServer, TokenBucket
from repro.serving.frontend import ServingError
from repro.serving.metrics import Counter, Histogram, MetricsRegistry
from repro.serving.query_cache import CachingDatabase, QueryCache, make_key
from repro.serving.server import ConversationApp
from repro.serving.session_store import SessionEntry, SessionStore

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

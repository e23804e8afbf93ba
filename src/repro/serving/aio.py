"""The conversation app on the asyncio front end.

The only HTTP front end of :class:`ConversationApp`, for a single
server and for every router-managed worker alike.  The shared
:class:`~repro.serving.frontend.AsyncHTTPServer` multiplexes thousands
of keep-alive connections on one event loop and answers every request
from the app's route table, while the synchronous turn core keeps
running on its bounded thread pool.  A turn request never parks a
front-end thread: the chat handlers run on the loop and await the turn
future, so concurrency is bounded by sessions and sockets, not threads.

Endpoints
---------
The app's route table (see :mod:`repro.serving.server`): ``POST
/chat``, ``POST /chat/stream`` (SSE), ``POST /feedback``, ``POST
/refresh``, ``GET /healthz`` / ``/metrics`` / ``/sessions`` /
``/session``.  Any other request is a 404, counted under the
``<unmatched>`` route label.

Admission control
-----------------
One in-flight bound: every admitted request takes one unit of
``max_pending`` at the dispatch point, and past it requests are shed
with 503 ``overloaded``; a turn keeps its unit until the turn itself
finishes, even after a 504.  Besides the bound, a per-session token
bucket (``rate_limit``/``rate_burst``) sheds over-rate chat turns with
429 ``rate_limited``, and the drain gate answers 503 ``draining`` once
shutdown begins.  Each refusal is counted in
``admission_rejected_total{reason=}``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.engine.agent import ConversationAgent
from repro.serving.frontend import AsyncHTTPServer
from repro.serving.server import ConversationApp

__all__ = ["AsyncConversationServer", "TokenBucket"]


class TokenBucket:
    """Per-key token buckets: ``rate`` tokens/second, ``burst`` capacity.

    Single-threaded by design — the async server consults it only from
    the event-loop thread, so no lock is needed.  ``clock`` is
    injectable (tests drive it deterministically).  Idle keys are
    pruned once their bucket refills to ``burst`` (a full bucket holds
    no rate-limiting state), so key cardinality stays bounded even
    under a scanner inventing session ids.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
        max_keys: int = 4096,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._max_keys = max_keys
        #: key -> (tokens remaining, stamp of last refill)
        self._buckets: dict[str, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._buckets)

    def allow(self, key: str) -> bool:
        """Take one token from ``key``'s bucket; False when empty."""
        now = self._clock()
        tokens, stamp = self._buckets.get(key, (self.burst, now))
        tokens = min(self.burst, tokens + (now - stamp) * self.rate)
        if tokens < 1.0:
            self._buckets[key] = (tokens, now)
            return False
        self._buckets[key] = (tokens - 1.0, now)
        if len(self._buckets) > self._max_keys:
            self._prune(now)
        return True

    def _prune(self, now: float) -> None:
        refilled = [
            key
            for key, (tokens, stamp) in self._buckets.items()
            if tokens + (now - stamp) * self.rate >= self.burst
        ]
        for key in refilled:
            del self._buckets[key]


class AsyncConversationServer(AsyncHTTPServer):
    """The conversation app served on the shared asyncio front end.

    Used for a single server and for every router-managed worker;
    ``start``/``shutdown``/``serve_forever``/``port``/``address`` and the
    context-manager protocol come from
    :class:`~repro.serving.frontend.AsyncHTTPServer`.  ``rate_limit``
    turns/second (0 disables it) and ``rate_burst`` size the per-session
    :class:`TokenBucket`; every other keyword but ``io_threads``
    configures the :class:`ConversationApp`.
    """

    def __init__(
        self,
        agent: ConversationAgent,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        rate_limit: float = 0.0,
        rate_burst: float = 8.0,
        io_threads: int = 8,
        clock: Callable[[], float] = time.monotonic,
        **app_options: Any,
    ) -> None:
        super().__init__(host, port, io_threads=io_threads, name="repro-aio")
        bucket = (
            TokenBucket(rate_limit, rate_burst, clock=clock)
            if rate_limit > 0
            else None
        )
        try:
            self.app = ConversationApp(agent, bucket=bucket, **app_options)
        except BaseException:
            super().shutdown()  # release the bound listener
            raise
        self.table = self.app.table

    def shutdown(self, drain_timeout: float = 10.0) -> bool:
        """Graceful stop: drain turns, flush, stop the loop; True when
        every in-flight turn finished inside ``drain_timeout``."""
        drained = self.app.close(drain_timeout)
        super().shutdown()
        return drained

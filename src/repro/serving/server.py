"""The conversation app: its route table and request handlers.

The paper deploys Conversational MDX as a cloud service answering real
clinician traffic (§6–§7); :class:`ConversationApp` is that serving
layer's request handling for the reproduction.  One shared, immutable
:class:`ConversationAgent` answers every request; all mutable
per-conversation state lives in the
:class:`~repro.serving.session_store.SessionStore`, and repeated lookup
queries are short-circuited by the
:class:`~repro.serving.query_cache.QueryCache`.  The app's route table
(:class:`~repro.serving.frontend.RouteTable`) is served over HTTP by
:class:`~repro.serving.aio.AsyncConversationServer` and in-process by
:meth:`ConversationApp.handle`.

Endpoints
---------
``POST /chat``
    ``{"utterance": ..., "session_id": optional, "debug": optional,
    "client_turn_id": optional}`` → the agent turn.  Omitting
    ``session_id`` opens a new session; the response always echoes the
    id to use on the next turn.  With ``"debug": true`` the response
    additionally carries the per-stage turn trace under ``"debug"``.
    ``client_turn_id`` (any client-chosen string, unique per attempted
    turn) makes retries idempotent: re-sending a turn the server
    already committed returns the committed response instead of
    running the turn twice.
``POST /chat/stream``
    Same payload as ``/chat``; the response is an SSE-style
    ``text/event-stream`` (chunked transfer encoding) of events emitted
    while the turn executes::

        event: rows
        data: {"batch": 0, "rows": [...]}

    ``rows`` batches arrive as soon as the KB query returns (before the
    answer text is rendered or the turn committed); clarification turns
    emit one ``elicitation`` or ``disambiguation`` event (the latter
    carrying the candidate ``choices``); the stream terminates with a
    ``done`` event whose data is exactly the committed-turn JSON that
    ``POST /chat`` would have returned, or an ``error`` event.
    Admission and validation failures before the first chunk are plain
    JSON error responses, not streams.
``POST /feedback``
    ``{"session_id": ..., "feedback": "up"|"down"}`` → thumbs feedback
    on that session's most recent turn (Equation 1 input), stored on
    the turn record and, in durable mode, journaled before the reply.
``POST /refresh``
    Build, validate and atomically swap in the next KB snapshot.
``GET /healthz``
    Liveness plus session/in-flight gauges.
``GET /metrics``
    Prometheus-style text: per-intent turn latency histograms,
    per-stage pipeline latency histograms and deciding-stage counters,
    classifier latency, cache hit rate, session churn, HTTP counters,
    and (durable mode) journal/snapshot/recovery counters.
``GET /sessions`` / ``GET /session?session_id=N``
    Session inspection: live and journaled sessions, and one session's
    committed transcript (read-only — inspecting a journaled session
    does not page it back into memory).

Admission control
-----------------
Every refusal is visible in ``/metrics`` as
``admission_rejected_total{reason=}``:

* one in-flight bound — every admitted request takes one unit of
  ``max_pending`` at the dispatch point; past it requests are shed with
  503 ``overloaded``.  A chat turn's unit is released only by its turn
  future's done-callback, so a turn whose client got a 504 stays
  counted while it still occupies an executor thread;
* a per-session token bucket (``rate_limit`` turns/second sustained,
  ``rate_burst`` burst) — over-rate chat turns are shed with 429
  ``rate_limited``;
* the drain gate — once ``close()`` begins, new turns get 503
  ``draining`` while in-flight ones finish.

Concurrency model: chat handlers run on the event loop and await the
turn future; each turn (session lookup, then the pipeline) runs on a
bounded ``ThreadPoolExecutor`` with a timeout (504 on expiry).  Every
other handler runs on the front end's I/O executor.  Stream chunks hop
from the turn thread to the loop via ``loop.call_soon_threadsafe`` into
a per-request ``asyncio.Queue``, so event order is preserved and the
turn never blocks on a slow client.

Durability: constructed with a ``data_dir`` the app replaces its
in-memory session store with a
:class:`~repro.persistence.store.DurableSessionStore` — every committed
turn is journaled *before* the response leaves the process, eviction
snapshots instead of losing state, unknown session ids are paged back
in from disk, and boot runs crash recovery.  See
:mod:`repro.persistence`.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

from repro.engine.agent import ConversationAgent
from repro.engine.kinds import ResponseKind
from repro.errors import EngineError
from repro.serving.frontend import (
    Request,
    Route,
    RouteTable,
    ServingError,
    end_stream,
    send_event,
    start_stream,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.query_cache import CachingDatabase, QueryCache
from repro.serving.session_store import SessionEntry, SessionStore

logger = logging.getLogger("repro.serving")


def _session_sort_key(sid: str) -> tuple:
    return (not sid.isdigit(), int(sid) if sid.isdigit() else 0, sid)


class _TimingClassifier:
    """Delegating classifier proxy that records classification latency.

    Both entry points are proxied explicitly: ``classify_batch`` must
    not fall through ``__getattr__`` untimed, because it is the path
    batched callers take (and the one ``IntentClassifier.classify``
    itself delegates to on the unwrapped object) — letting it bypass the
    timer would silently blank ``classifier_latency_seconds`` for any
    batching server.  Batch latency is observed per utterance so the
    histogram stays comparable across both paths.
    """

    def __init__(self, classifier: Any, registry: MetricsRegistry) -> None:
        self._classifier = classifier
        self._registry = registry

    def classify(self, utterance: str) -> Any:
        start = time.perf_counter()
        try:
            return self._classifier.classify(utterance)
        finally:
            self._registry.histogram("classifier_latency_seconds").observe(
                time.perf_counter() - start
            )

    def classify_batch(self, utterances: Any) -> Any:
        start = time.perf_counter()
        try:
            return self._classifier.classify_batch(utterances)
        finally:
            count = len(utterances)
            if count:
                per_utterance = (time.perf_counter() - start) / count
                histogram = self._registry.histogram(
                    "classifier_latency_seconds"
                )
                for _ in range(count):
                    histogram.observe(per_utterance)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._classifier, name)


class ConversationApp:
    """The app's routes and handlers, served over HTTP and in-process."""

    def __init__(
        self,
        agent: ConversationAgent,
        *,
        max_sessions: int = 1024,
        session_ttl: float = 1800.0,
        cache_size: int = 512,
        max_workers: int = 16,
        max_pending: int = 128,
        request_timeout: float = 30.0,
        data_dir: str | Path | None = None,
        fsync: str = "always",
        snapshot_every: int = 64,
        id_stride: int = 1,
        id_offset: int = 1,
        recover_on_boot: bool = True,
        kb_builder: Callable[[], Any] | None = None,
        bucket: Any = None,
    ) -> None:
        self.agent = agent
        self.metrics = MetricsRegistry()
        #: Zero-argument callable producing the *next* KB database for
        #: ``POST /refresh`` (typically a rebuild of the bootstrap
        #: pipeline).  Refresh is a 501 when no builder is wired.
        self._kb_builder = kb_builder
        self._refresh_state_lock = threading.Lock()
        self._refresh_in_progress = False
        self.durable = None
        if data_dir is not None:
            # Imported lazily: repro.persistence.store depends on this
            # package's session store, so a module-level import would be
            # circular.
            from repro.persistence.store import DurableSessionStore

            self.durable = DurableSessionStore(
                agent,
                data_dir,
                max_sessions=max_sessions,
                ttl=session_ttl,
                fsync=fsync,
                snapshot_every=snapshot_every,
                id_stride=id_stride,
                id_offset=id_offset,
                recover_on_boot=recover_on_boot,
            )
            #: ``sessions`` is the lifecycle surface (create/get page
            #: through disk in durable mode); ``store`` stays the
            #: in-memory working set for gauges and inspection.
            self.sessions = self.durable
            self.store = self.durable.store
        else:
            self.store = SessionStore(
                agent, max_sessions=max_sessions, ttl=session_ttl
            )
            self.sessions = self.store
        self.cache = QueryCache(max_entries=cache_size)
        self.request_timeout = request_timeout
        self.max_pending = max_pending
        #: The per-session :class:`~repro.serving.aio.TokenBucket` the
        #: chat handlers consult, or None (no rate limit).
        self.bucket = bucket
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-turn"
        )
        self._in_flight = 0
        self._state_lock = threading.Lock()
        self._draining = False
        #: Turn futures whose client already got a 504: the turn is
        #: still running on the executor, its unit is still held
        #: (the done-callback frees it), and its eventual exception is
        #: retrieved and logged instead of becoming "never retrieved"
        #: noise.
        self._abandoned: set[Future] = set()
        # The agent is shared and immutable during serving *except* for
        # these two instrumentation hooks, installed for the server's
        # lifetime and removed by close(): the database proxy adds the
        # query cache, the classifier proxy adds latency telemetry.
        self._original_database = agent.database
        self._original_classifier = agent.classifier
        agent.database = CachingDatabase(agent.database, self.cache)
        agent.classifier = _TimingClassifier(agent.classifier, self.metrics)
        self.metrics.gauge("sessions_active", lambda: len(self.store))
        self.metrics.gauge(
            "sessions_evicted_ttl_total", lambda: self.store.evicted_ttl
        )
        self.metrics.gauge(
            "sessions_evicted_lru_total", lambda: self.store.evicted_lru
        )
        self.metrics.gauge("turns_in_flight", lambda: self.in_flight)
        self.metrics.gauge(
            "query_cache_hit_rate", lambda: round(self.cache.hit_rate(), 6)
        )
        # Plan/index observability (read from the unwrapped database so
        # the gauges keep working after close() restores the hooks).
        self.metrics.gauge(
            "plan_cache_hits_total",
            lambda: self._original_database.plan_stats()["hits"],
        )
        self.metrics.gauge(
            "plan_cache_misses_total",
            lambda: self._original_database.plan_stats()["misses"],
        )
        self.metrics.gauge(
            "plan_cache_plans", lambda: self._original_database.plan_stats()["plans"]
        )
        self.metrics.gauge(
            "plan_index_probes_total",
            lambda: self._original_database.plan_stats()["index_probes"],
        )
        self.metrics.gauge(
            "kb_index_builds_total",
            lambda: sum(
                int(t.index_stats()["builds"])
                for t in self._original_database.tables()
            ),
        )
        # KB refresh observability.  kb_refresh_total and the duration
        # histogram are registered now so they render as 0 before the
        # first refresh; plan_lowered_total counts the active snapshot's
        # plan executions (the in-memory engine is the one path).
        self.metrics.counter("kb_refresh_total")
        self._refresh_duration = self.metrics.histogram(
            "kb_refresh_duration_seconds"
        )
        self.metrics.gauge(
            "kb_epoch",
            lambda: float(self._original_database.epoch),
        )
        self.metrics.gauge(
            "plan_lowered_total",
            lambda: float(
                self._original_database.plan_stats()["executions"]
            ),
            label=("path", "memory"),
        )
        self.metrics.gauge(
            "query_cache_stale_drops_total",
            lambda: float(self.cache.stale_drops),
        )
        self.metrics.gauge(
            "query_cache_stale_served_total",
            lambda: float(self.cache.stale_served),
        )
        if self.durable is not None:
            for name in self.durable.counters:
                self.metrics.gauge(
                    name, lambda n=name: self.durable.counter(n)
                )
        self.table = self._routes()

    def _routes(self) -> RouteTable:
        """The app's route table, built per instance from bound methods."""
        return RouteTable(
            self.metrics,
            {
                "POST /chat": Route(self._chat, on_loop=True),
                "POST /chat/stream": Route(self._chat_stream, on_loop=True),
                "POST /feedback": Route(self.feedback),
                "POST /refresh": Route(self.refresh_kb),
                "GET /healthz": Route(self.health),
                "GET /sessions": Route(self.list_sessions),
                "GET /session": Route(self.session_detail),
            },
            admit=self._admit,
            release=self._release,
        )

    # -- state ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    def _admit(self) -> None:
        """Take one unit of the in-flight bound, or shed the request.

        The capacity check and the increment happen under a single lock
        acquisition, so N requests racing the bound admit at most
        ``max_pending``.  (A check in one acquisition and an increment
        in a second let concurrent requests all pass at once.)
        """
        with self._state_lock:
            if self._in_flight < self.max_pending:
                self._in_flight += 1
                return
        self.metrics.counter(
            "admission_rejected_total", ("reason", "overloaded")
        ).inc()
        raise ServingError(503, "overloaded", "too many requests in flight")

    def _release(self) -> None:
        """Return the unit of a request that started no turn."""
        with self._state_lock:
            self._in_flight -= 1

    def _on_turn_done(self, future: Future) -> None:
        """Done-callback on every turn future: the only release of a
        turn's unit.

        A 504 abandons the future, but ``Future.cancel`` cannot stop a
        turn that is already running — the executor thread it occupies
        is real load, so the unit stays held (visible to admission
        control) until the turn actually finishes, which is exactly when
        this callback fires.  Abandoned futures also get their exception
        retrieved and logged here instead of surfacing as "exception was
        never retrieved" noise at interpreter shutdown.
        """
        with self._state_lock:
            self._in_flight -= 1
            abandoned = future in self._abandoned
            self._abandoned.discard(future)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None and abandoned:
            logger.warning(
                "turn abandoned by its 504 client failed: %r", exc
            )

    def begin_drain(self) -> None:
        with self._state_lock:
            self._draining = True

    def drain(self, timeout: float = 10.0) -> bool:
        """Refuse new turns, wait for in-flight ones; True when drained."""
        self.begin_drain()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.in_flight == 0:
                return True
            time.sleep(0.01)
        return self.in_flight == 0

    def close(self, drain_timeout: float = 10.0) -> bool:
        """Drain, stop workers, restore the agent hooks.

        In durable mode every live session is snapshotted on the way
        out, so a clean restart recovers with zero journal replay.
        """
        drained = self.drain(drain_timeout)
        self._executor.shutdown(wait=True)
        self.agent.database = self._original_database
        self.agent.classifier = self._original_classifier
        if self.durable is not None:
            self.durable.close()
        return drained

    # -- request handling ----------------------------------------------------

    def handle(
        self, method: str, path: str, payload: dict
    ) -> tuple[int, dict | str]:
        """Answer one request in-process; returns (status, body).

        The HTTP front end's dispatch over the same route table, without
        a socket: ``payload`` stands in for the decoded JSON body, and
        GET query parameters (``/session?session_id=7``) are folded in
        (explicit payload keys win).  Blocking handlers run on a
        short-lived event loop's default executor; ``/chat/stream``
        needs a connection and is HTTP-only.
        """
        request = Request(method, path, {}, payload=dict(payload))
        return asyncio.run(self.table.dispatch(request, None))

    def chat(self, payload: dict) -> dict:
        """Run one turn in-process; raises the error a client would get."""
        status, body = self.handle("POST", "/chat", payload)
        if status != 200:
            raise ServingError(status, body["error"], body["message"])
        return body

    def _check_rate(self, payload: dict) -> None:
        """Per-session token bucket (chat routes, loop thread only)."""
        session_id = payload.get("session_id")
        if self.bucket is None or session_id is None:
            return  # opening turns have no key yet
        if not self.bucket.allow(str(session_id)):
            self.metrics.counter(
                "admission_rejected_total", ("reason", "rate_limited")
            ).inc()
            raise ServingError(
                429, "rate_limited",
                "session exceeded its turn rate limit; retry later",
            )

    def _start_turn(
        self,
        payload: dict,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> Future:
        """Check one chat payload and start its turn on the executor.

        The turn takes over the request's in-flight unit: the future's
        done-callback releases it, and callers that stop waiting report
        through :meth:`timeout_turn`.  A payload refused here releases
        the unit before the error propagates.
        """
        try:
            self._check_rate(payload)
            utterance = payload.get("utterance")
            if not isinstance(utterance, str) or not utterance.strip():
                raise ServingError(
                    400, "bad_request",
                    "'utterance' must be a non-empty string",
                )
            if self.draining:
                self.metrics.counter(
                    "admission_rejected_total", ("reason", "draining")
                ).inc()
                raise ServingError(503, "draining", "server is shutting down")
            future: Future = self._executor.submit(
                self._open_turn, payload, utterance, chunk_sink
            )
        except BaseException:
            self._release()
            raise
        future.add_done_callback(self._on_turn_done)
        return future

    def _open_turn(
        self,
        payload: dict,
        utterance: str,
        chunk_sink: Callable[[str, dict], None] | None,
    ) -> dict:
        """Resolve the turn's session (new, live or paged in), then run
        the turn; on the turn executor."""
        session_id = payload.get("session_id")
        if session_id is None:
            sid, entry = self.sessions.create()
        else:
            sid = str(session_id)
            found = self.sessions.get(sid)
            if found is None:
                raise ServingError(
                    404,
                    "unknown_session",
                    f"session {sid} does not exist (it may have expired)",
                )
            entry = found
        client_turn_id = payload.get("client_turn_id")
        return self._turn(
            sid, entry, utterance, bool(payload.get("debug")),
            None if client_turn_id is None else str(client_turn_id),
            chunk_sink,
        )

    async def _chat(self, request: Request) -> dict:
        """``POST /chat``: await the turn on the loop, 504 past the timeout."""
        future = self._start_turn(request.payload)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            raise self.timeout_turn(future) from None

    async def _chat_stream(self, request: Request) -> None:
        """``POST /chat/stream``: the turn's chunks as SSE events."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def emit(kind: str, data: dict) -> None:
            # Runs on the executor thread driving the turn; hop to the
            # loop.  FIFO: chunks always precede the future's done hop.
            loop.call_soon_threadsafe(queue.put_nowait, (kind, data))

        future = self._start_turn(request.payload, self.stream_sink(emit))
        wrapped = asyncio.wrap_future(future)
        wrapped.add_done_callback(
            lambda _f: queue.put_nowait(("__done__", {}))
        )
        timeout_handle = loop.call_later(
            self.request_timeout,
            lambda: queue.put_nowait(("__timeout__", {})),
        )
        writer = request.writer
        started = False
        try:
            while True:
                kind, data = await queue.get()
                if kind == "__timeout__":
                    # The abandoned turn keeps running; its chunks drain
                    # into this queue, which dies with this request.
                    error = self.timeout_turn(future)
                elif kind == "__done__":
                    timeout_handle.cancel()
                    try:
                        kind, data = "done", future.result()
                    except ServingError as exc:
                        error = exc
                    except Exception as exc:
                        if not wrapped.cancelled():
                            logger.exception("streamed turn failed: %r", exc)
                        error = ServingError(500, "internal", "turn failed")
                if kind.startswith("__"):  # the turn failed or timed out
                    if not started:
                        raise error  # a plain JSON error response
                    kind, data = "error", self.table.error(error)
                if not started:
                    await start_stream(writer)
                    started = True
                await send_event(writer, kind, data)
                if kind in ("done", "error"):
                    await end_stream(writer)
                    return None
        except (ConnectionResetError, BrokenPipeError):
            # Mid-stream disconnect: the turn still commits (its unit is
            # released by the done-callback); we just stop writing.
            timeout_handle.cancel()
            self.metrics.counter("stream_disconnects_total").inc()
            return None

    def timeout_turn(self, future: Future) -> ServingError:
        """Bookkeeping for a turn whose client gave up; returns the 504.

        ``Future.cancel`` cannot stop a running turn, so an uncancellable
        future is marked abandoned: its slot stays reserved (it is real
        executor load) until the done-callback fires, and its eventual
        exception is retrieved and logged there.
        """
        abandoned = False
        if not future.cancel():
            with self._state_lock:
                if not future.done():
                    self._abandoned.add(future)
                    abandoned = True
        if abandoned:
            self.metrics.counter("turns_abandoned_total").inc()
        self.metrics.counter("turn_timeouts_total").inc()
        return ServingError(
            504, "timeout", f"turn exceeded {self.request_timeout}s"
        )

    def stream_sink(
        self, emit: Callable[[str, dict], None]
    ) -> Callable[[str, dict], None]:
        """Wrap a transport ``emit`` as a shielded turn chunk sink.

        The returned sink runs on the executor thread driving the turn.
        If ``emit`` raises (the client went away mid-stream) the error
        is logged, further chunks are dropped, and the turn still
        commits; successful chunks count into ``stream_chunks_total``.
        """
        sink_broken: list[BaseException] = []

        def sink(kind: str, data: dict) -> None:
            if sink_broken:
                return
            try:
                emit(kind, data)
            except Exception as exc:
                sink_broken.append(exc)
                logger.warning(
                    "stream sink failed; dropping further chunks: %r", exc
                )
                return
            self.metrics.counter("stream_chunks_total").inc()

        return sink

    def _turn(
        self,
        sid: str,
        entry: SessionEntry,
        utterance: str,
        debug: bool = False,
        client_turn_id: str | None = None,
        chunk_sink: Callable[[str, dict], None] | None = None,
    ) -> dict:
        start = time.perf_counter()
        with entry.lock:
            if (
                client_turn_id is not None
                and entry.last_commit is not None
                and entry.last_commit[0] == client_turn_id
            ):
                # The client is retrying a turn that already committed
                # (it never saw the response — a dropped connection or a
                # worker death after the journal append): replay the
                # committed answer instead of mutating the conversation
                # a second time.
                self.metrics.counter("turns_deduplicated_total").inc()
                return dict(entry.last_commit[1])
            try:
                response = entry.session.ask(utterance, chunk_sink)
            except EngineError as exc:
                raise ServingError(400, "bad_request", str(exc)) from exc
            if chunk_sink is not None:
                if response.kind == ResponseKind.ELICIT:
                    chunk_sink("elicitation", {
                        "text": response.text,
                        "concept": response.elicit_concept,
                    })
                elif response.kind == ResponseKind.DISAMBIGUATE:
                    pending = (
                        entry.session.context.variables.get("disambiguation")
                        or {}
                    )
                    chunk_sink("disambiguation", {
                        "text": response.text,
                        "choices": [
                            value for _, value in pending.get("candidates", [])
                        ],
                    })
            entry.turn_count += 1
            result = {
                "session_id": sid,
                "text": response.text,
                "intent": response.intent,
                "confidence": response.confidence,
                "kind": response.kind,
                "entities": dict(response.entities),
                "sql": response.sql,
                "turn": entry.turn_count,
            }
            # The commit point: once the journal append returns, the
            # turn survives kill -9 and the response may go out.
            if self.durable is not None:
                self.durable.commit_turn(
                    sid, entry, utterance, result, client_turn_id
                )
            elif client_turn_id is not None:
                entry.last_commit = (client_turn_id, dict(result))
        elapsed = time.perf_counter() - start
        intent_label = response.intent or "<none>"
        self.metrics.counter("turns_total").inc()
        self.metrics.histogram("turn_latency_seconds").observe(elapsed)
        self.metrics.histogram(
            "turn_latency_seconds", ("intent", intent_label)
        ).observe(elapsed)
        trace = response.trace
        if trace is not None:
            for stage in trace.stages:
                self.metrics.histogram(
                    "turn_stage_latency_seconds", ("stage", stage.stage)
                ).observe(stage.duration)
            self.metrics.counter(
                "turn_stage_decisions_total",
                ("stage", trace.deciding_stage or "<none>"),
            ).inc()
        if debug and trace is not None:
            result = dict(result)
            result["debug"] = trace.to_dict()
        return result

    def feedback(self, request: Request) -> dict:
        session_id = request.payload.get("session_id")
        feedback = request.payload.get("feedback")
        if session_id is None or feedback not in ("up", "down"):
            raise ServingError(
                400,
                "bad_request",
                "'session_id' and 'feedback' ('up'|'down') are required",
            )
        sid = str(session_id)
        entry = self.sessions.get(sid)
        if entry is None:
            raise ServingError(
                404, "unknown_session", f"session {sid} does not exist"
            )
        with entry.lock:
            try:
                entry.session.context.mark_last_turn(feedback)
            except ValueError as exc:
                raise ServingError(409, "no_interaction", str(exc)) from exc
            # Committed like a turn: journaled before the reply.
            if self.durable is not None:
                self.durable.commit_feedback(sid, entry)
        self.metrics.counter("feedback_total", ("feedback", feedback)).inc()
        return {"session_id": sid, "feedback": feedback}

    def refresh_kb(self, request: Request) -> dict:
        """Build, validate and atomically swap in the next KB snapshot.

        Runs on the calling thread (a front-end I/O executor thread, not
        the event loop, so serving continues on the old snapshot
        throughout the build).
        The new database is validated with the ``repro check`` space
        checker before the swap; a snapshot that fails validation is
        discarded and the live KB is untouched.  The swap itself is one
        atomic handle update — in-flight turns keep the database they
        already resolved, new turns observe the new one, and the bumped
        epoch makes every cached result from the old one unservable.
        """
        handle = self._original_database
        if self._kb_builder is None:
            raise ServingError(
                501,
                "refresh_unsupported",
                "this server was started without a KB builder",
            )
        with self._refresh_state_lock:
            if self._refresh_in_progress:
                raise ServingError(
                    409, "refresh_in_progress", "a KB refresh is already running"
                )
            self._refresh_in_progress = True
        start = time.perf_counter()
        try:
            try:
                database = self._kb_builder()
            except Exception as exc:
                raise ServingError(
                    500, "refresh_build_failed", f"KB build failed: {exc}"
                ) from exc
            # Imported lazily — the analysis package is a toolchain
            # dependency the serving hot path never touches.
            from repro.analysis.diagnostics import error_count
            from repro.analysis.space_checker import check_space

            built = time.perf_counter()
            diagnostics = check_space(self.agent.space, database)
            validated = time.perf_counter()
            errors = error_count(diagnostics)
            if errors:
                raise ServingError(
                    409,
                    "refresh_validation_failed",
                    f"new KB snapshot failed validation with {errors} "
                    "error(s); keeping the current snapshot",
                )
            epoch = handle.swap(database)
            duration = time.perf_counter() - start
            self.metrics.counter("kb_refresh_total").inc()
            self._refresh_duration.observe(duration)
            return {
                "status": "ok",
                "epoch": epoch,
                "tables": len(database.table_names()),
                "duration_seconds": round(duration, 6),
                "build_seconds": round(built - start, 6),
                "validate_seconds": round(validated - built, 6),
                "validation_errors": 0,
            }
        finally:
            with self._refresh_state_lock:
                self._refresh_in_progress = False

    def health(self, request: Request) -> dict:
        health = {
            "status": "draining" if self.draining else "ok",
            "sessions": len(self.store),
            "in_flight": self.in_flight,
            "turns_total": self.metrics.counter("turns_total").value,
            "cache": self.cache.stats(),
        }
        if self.durable is not None:
            health["durable"] = {
                "data_dir": str(self.durable.data_dir),
                "fsync": self.durable.fsync_policy,
                "turns_journaled": self.durable.counter(
                    "turns_journaled_total"
                ),
                "sessions_recovered": self.durable.counter(
                    "sessions_recovered_total"
                ),
            }
        return health

    def list_sessions(self, request: Request) -> dict:
        """Live sessions plus every session with durable state on disk."""
        live = set(self.store.ids())
        out = {"live": sorted(live, key=_session_sort_key)}
        if self.durable is not None:
            from repro.persistence.recovery import list_session_ids

            durable = list_session_ids(self.durable.data_dir)
            out["durable"] = durable
            out["paged_out"] = [sid for sid in durable if sid not in live]
        return out

    def session_detail(self, request: Request) -> dict:
        """One session's committed transcript (read-only).

        A live session answers from its in-memory context; a paged-out
        one is inspected straight from its journal/snapshot without
        being paged back in.
        """
        session_id = request.payload.get("session_id")
        if session_id is None:
            raise ServingError(400, "bad_request", "'session_id' is required")
        sid = str(session_id)
        entry = self.store.get(sid)
        if entry is not None:
            with entry.lock:
                history = [
                    record.to_dict()
                    for record in entry.session.context.history
                ]
            return {
                "session_id": sid,
                "source": "live",
                "turn_count": len(history),
                "turns": history,
            }
        if self.durable is not None:
            from repro.persistence.recovery import inspect_session

            detail = inspect_session(self.durable.data_dir, sid)
            if detail is not None:
                detail["source"] = "disk"
                return detail
        raise ServingError(
            404, "unknown_session", f"session {sid} does not exist"
        )

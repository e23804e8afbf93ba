"""The one HTTP/1.1 front end: an asyncio listener on its own thread.

Every serving process speaks HTTP through :class:`AsyncHTTPServer`: the
single conversation server and each router-managed worker
(:class:`~repro.serving.aio.AsyncConversationServer`) and the session
router (:class:`~repro.persistence.router.SessionRouter`).  This module
owns what none of them specialises:

* the lifecycle — the listening socket is bound at construction (so
  ``port``/``address`` are known before ``start()``), and the event
  loop runs on a dedicated thread so synchronous callers (tests, the
  CLI) drive every server the same way;
* the request head parser and the input limits — a 16 KiB head cap,
  a ``MAX_BODY_BYTES`` body cap (413 ``too_large``), a strict
  ``Content-Length`` (400 ``bad_request`` when malformed or negative)
  and no ``Transfer-Encoding`` bodies (501, connection closed);
* the keep-alive connection loop;
* the one request path: each server hands the front end a
  :class:`RouteTable` mapping ``"METHOD /path"`` to a :class:`Route`,
  and :meth:`RouteTable.dispatch` answers every request from it —
  request counting, JSON decoding, the in-flight bound and error
  mapping happen there once;
* the response writer, which sends head and body in one write so a
  keep-alive reply never waits on the client's delayed ACK.

Blocking handlers run on the server's I/O executor, never on the loop.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs, urlsplit

from repro.serving.metrics import MetricsRegistry

logger = logging.getLogger("repro.serving.frontend")

#: Maximum accepted request body, in bytes (an utterance, not an upload).
MAX_BODY_BYTES = 64 * 1024

#: Header-block size cap (request line + headers, not the body).
MAX_HEAD_BYTES = 16 * 1024


class ServingError(Exception):
    """An error with an HTTP status and a machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class Request:
    """One HTTP request as its handler sees it.

    The connection loop fills ``body`` and ``writer``; the dispatch sets
    ``payload`` — the decoded JSON body with the query parameters folded
    in.  An in-process caller passes ``payload`` instead of a body.
    """

    __slots__ = ("method", "path", "headers", "body", "payload", "writer")

    def __init__(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        payload: dict | None = None,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = b""
        self.payload = payload
        self.writer: asyncio.StreamWriter | None = None

    @property
    def content_length(self) -> int:
        try:
            length = int(self.headers.get("content-length") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise ServingError(400, "bad_request", "invalid Content-Length")
        return length

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def decode(self, query: str) -> dict:
        """The JSON body (POST only) with ``query`` folded in; explicit
        body keys win."""
        payload = self.payload
        if payload is None:
            payload = {}
            if self.method == "POST" and self.body:
                try:
                    payload = json.loads(self.body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    raise ServingError(
                        400, "bad_json", "body must be JSON"
                    ) from None
                if not isinstance(payload, dict):
                    raise ServingError(
                        400, "bad_json", "body must be a JSON object"
                    )
        if query:
            folded = {
                key: values[-1] for key, values in parse_qs(query).items()
            }
            folded.update(payload)
            payload = folded
        return payload


def parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """Split a request or response head into the three words of its
    first line and its headers (names lower-cased).

    Raises ``ValueError`` when the first line has fewer than three words.
    """
    text = head.decode("latin-1")
    first_line, _, header_block = text.partition("\r\n")
    words = first_line.split(" ", 2)
    if len(words) != 3:
        raise ValueError(f"malformed first line {first_line!r}")
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return words, headers


def _parse_head(head: bytes) -> Request:
    try:
        (method, path, _version), headers = parse_head(head)
    except ValueError as exc:
        raise ServingError(400, "bad_request", "malformed request") from exc
    return Request(method.upper(), path, headers)


class Route(NamedTuple):
    """One route-table entry: the handler of one ``"METHOD /path"``.

    A handler takes the :class:`Request` and returns its answer: a dict
    (200 JSON), a str (200 text), a ``(status, body)`` or
    ``(status, bytes, content_type)`` tuple, or None once it has written
    the response itself (a stream).  An ``on_loop`` handler is a
    coroutine awaited on the event loop, and it takes over the request's
    unit of the in-flight bound (it hands the unit to its turn, or
    releases it); any other handler runs on the I/O executor, and its
    unit is released when it returns.
    """

    handler: Callable[[Request], Any]
    on_loop: bool = False


def _unbounded() -> None:
    """No in-flight bound: nothing to take or return."""


class RouteTable:
    """One server's routes and the one dispatch every request takes.

    ``routes`` maps ``"METHOD /path"`` to a :class:`Route`; ``GET
    /metrics`` is added for every server.  ``fallback`` answers the
    requests no key matches (the router forwards them); without one
    they are 404s.  ``admit`` takes one unit of the server's in-flight
    bound, raising 503 ``overloaded`` when none is left, and
    ``release`` returns it; a server without a bound passes neither.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        routes: dict[str, Route],
        *,
        fallback: Route | None = None,
        admit: Callable[[], None] = _unbounded,
        release: Callable[[], None] = _unbounded,
    ) -> None:
        self.metrics = metrics
        self.routes = {"GET /metrics": Route(self.render_metrics), **routes}
        self.fallback = fallback
        self._admit = admit
        self._release = release

    def render_metrics(self, request: Request) -> str:
        return self.metrics.render()

    def error(self, exc: ServingError) -> dict:
        """Count one error response and build its JSON body."""
        self.metrics.counter("http_errors_total", ("code", exc.code)).inc()
        return {"error": exc.code, "message": exc.message}

    async def dispatch(
        self, request: Request, executor: Executor | None
    ) -> tuple | None:
        """Answer one request: ``(status, body[, content_type])``, or
        None when the handler wrote the response itself.

        Every request is counted once, under its table key or
        ``<unmatched>`` (so a scanner walking random URLs cannot grow
        label cardinality), before its body is decoded.
        """
        parts = urlsplit(request.path)
        key = f"{request.method} {parts.path}"
        route = self.routes.get(key)
        self.metrics.counter(
            "http_requests_total",
            ("route", key if route is not None else "<unmatched>"),
        ).inc()
        route = route or self.fallback
        try:
            if route is None:
                raise ServingError(404, "not_found", f"no route for {key}")
            request.payload = request.decode(parts.query)
            self._admit()
            if route.on_loop:
                answer = await route.handler(request)
            else:
                try:
                    answer = await asyncio.get_running_loop().run_in_executor(
                        executor, route.handler, request
                    )
                finally:
                    self._release()
        except ServingError as exc:
            return exc.status, self.error(exc)
        except Exception as exc:
            logger.exception("%s failed: %r", key, exc)
            return 500, self.error(
                ServingError(500, "internal", "internal error")
            )
        if answer is None or isinstance(answer, tuple):
            return answer
        return 200, answer


class AsyncHTTPServer:
    """Owns the listening socket, the event loop thread and the lifecycle.

    Usable as a context manager (``start`` on enter, ``shutdown`` on
    exit).  A subclass sets ``table``, the :class:`RouteTable` every
    request is dispatched from; ``io_threads`` sizes the executor its
    blocking handlers run on.
    """

    table: RouteTable

    def __init__(
        self, host: str, port: int, *, io_threads: int, name: str
    ) -> None:
        self._sock = socket.create_server((host, port), backlog=128)
        self._address = self._sock.getsockname()[:2]
        self._name = name
        self._io = ThreadPoolExecutor(
            max_workers=io_threads, thread_name_prefix=f"{name}-io"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncHTTPServer":
        """Run the loop on a background thread; returns self once serving."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{self._name}-serving", daemon=True
        )
        self._thread.start()
        started = self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            raise error
        if not started:
            raise RuntimeError(f"{self._name} failed to start serving")
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # surfaced to start()'s caller
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._accept, sock=self._sock, limit=MAX_HEAD_BYTES
        )
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            leftovers = [t for t in self._conn_tasks if not t.done()]
            for task in leftovers:
                task.cancel()
            if leftovers:
                await asyncio.gather(*leftovers, return_exceptions=True)

    def shutdown(self) -> None:
        """Stop serving and close the listener (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sock.close()
        self._io.shutdown(wait=False)

    def serve_forever(self) -> None:
        """Serve until interrupted (the foreground CLI path)."""
        try:
            if self._thread is None:
                self.start()
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def __enter__(self) -> "AsyncHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- connection handling -------------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The server creates and owns each connection's task.  Shutdown
        # cancels the connections parked between keep-alive requests,
        # and on Python 3.11 asyncio logs a traceback for a cancelled
        # task that it created from a coroutine the callback returned.
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._connection_loop(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away or sent an oversized/garbled head
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return  # clean keep-alive close between requests
            try:
                request = _parse_head(head)
                if "transfer-encoding" in request.headers:
                    # Unread chunk bytes would be parsed as the next
                    # request on this connection.
                    raise ServingError(
                        501, "transfer_encoding_unsupported",
                        "Transfer-Encoding request bodies are not supported",
                    )
                length = request.content_length
                if length > MAX_BODY_BYTES:
                    raise ServingError(
                        413, "too_large", "request body too large"
                    )
                if length:
                    request.body = await reader.readexactly(length)
            except ServingError as exc:
                await send(
                    writer, exc.status,
                    {"error": exc.code, "message": exc.message},
                    keep_alive=False,
                )
                return
            request.writer = writer
            await self._process_request(request)
            if request.wants_close:
                return

    async def _process_request(self, request: Request) -> None:
        """Answer one request from the server's route table."""
        reply = await self.table.dispatch(request, self._io)
        if reply is not None:
            await send(request.writer, *reply)


# -- wire format ---------------------------------------------------------------

async def send(
    writer: asyncio.StreamWriter,
    status: int,
    body: dict | str | bytes,
    content_type: str | None = None,
    keep_alive: bool = True,
) -> None:
    """Write one response: a dict as JSON, a str as text, bytes as
    ``content_type``."""
    if isinstance(body, bytes):
        data = body
    elif isinstance(body, str):
        data = body.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        data = json.dumps(body).encode("utf-8")
        content_type = "application/json"
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + data)
    await writer.drain()


async def start_stream(writer: asyncio.StreamWriter) -> None:
    """Open a chunked ``text/event-stream`` response."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: keep-alive\r\n\r\n"
    )
    await writer.drain()


async def send_event(
    writer: asyncio.StreamWriter, event: str, data: dict
) -> None:
    """One SSE event as one chunk."""
    frame = f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")
    writer.write(f"{len(frame):x}\r\n".encode("latin-1"))
    writer.write(frame)
    writer.write(b"\r\n")
    await writer.drain()


async def end_stream(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
    await writer.drain()

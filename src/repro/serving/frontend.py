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
  a ``MAX_BODY_BYTES`` body cap (413 ``too_large``) and a strict
  ``Content-Length`` (400 ``bad_request`` when malformed or negative);
* the keep-alive connection loop;
* the response writer, which sends head and body in one write so a
  keep-alive reply never waits on the client's delayed ACK.

Subclasses implement :meth:`AsyncHTTPServer._process_request`; blocking
work runs on the server's I/O executor, never on the loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

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
    """One parsed HTTP request (head only; the body is read separately)."""

    __slots__ = ("method", "path", "headers")

    def __init__(self, method: str, path: str, headers: dict[str, str]):
        self.method = method
        self.path = path
        self.headers = headers

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


def _parse_head(head: bytes) -> Request:
    try:
        text = head.decode("latin-1")
        request_line, _, header_block = text.partition("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError as exc:
        raise ServingError(400, "bad_request", "malformed request") from exc
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return Request(method.upper(), path, headers)


class AsyncHTTPServer:
    """Owns the listening socket, the event loop thread and the lifecycle.

    Usable as a context manager (``start`` on enter, ``shutdown`` on
    exit).  ``io_threads`` sizes the executor that subclasses hand
    their blocking work to.
    """

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
                length = request.content_length
                if length > MAX_BODY_BYTES:
                    raise ServingError(
                        413, "too_large", "request body too large"
                    )
                body = await reader.readexactly(length) if length else b""
            except ServingError as exc:
                await self._send_json(
                    writer, exc.status,
                    {"error": exc.code, "message": exc.message},
                    keep_alive=False,
                )
                return
            keep_alive = await self._process_request(request, body, writer)
            if not keep_alive or request.wants_close:
                return

    async def _process_request(
        self, request: Request, body: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; returns False when the connection must close."""
        raise NotImplementedError

    # -- wire format ----------------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        data: bytes,
        content_type: str,
        keep_alive: bool = True,
    ) -> None:
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | str,
        keep_alive: bool = True,
    ) -> None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        await self._send(writer, status, data, content_type, keep_alive)

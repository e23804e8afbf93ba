"""Session-affine multi-worker front end: router + worker supervision.

One router process owns the public listening socket and forwards every
request to one of *N* worker subprocesses, each a full single-process
conversation server (``python -m repro serve --worker-index i``) with
its own immutable KB replica and its own slice of the durable data
directory::

    data_dir/
      workers/
        00/  worker 0: session_ids.json, sessions/, worker.json, worker.log
        01/  worker 1: ...

Affinity is the id space itself: worker *i* of *N* allocates session
ids ≡ *i* (mod *N*) (see
:class:`~repro.persistence.store.DurableSessionIdAllocator`), so the
router can route any request carrying a numeric ``session_id`` with
``int(sid) % N`` — no routing table, nothing to rebuild after a crash.
Requests without a session id (new conversations, health checks) are
spread round-robin.

Workers hand their bound port back through a ready file
(``worker.json``, written after the worker's server is listening); the
router deletes the file before each spawn so a stale file can never be
mistaken for the new process.  Workers launch together and are awaited
as a group, so their agent builds overlap; a monitor thread relaunches
every dead worker in one sweep the same way.  A restarted worker
replays its journals on boot (``recover_on_boot``), so every session it
owned resumes exactly where its last committed turn left it.  While a
worker is down, requests for its sessions fail fast with ``503
worker_unavailable`` — clients retry (idempotently, via
``client_turn_id``) until the replacement is up.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro.errors import RouterError
from repro.serving.frontend import MAX_HEAD_BYTES, AsyncHTTPServer, Request
from repro.serving.frontend import Route, RouteTable, parse_head
from repro.serving.metrics import MetricsRegistry

#: Ready file a worker writes into its worker directory once listening.
READY_FILE = "worker.json"

#: How long the router waits for a spawned worker to come up.  Workers
#: may build an agent from scratch (the full MDX build takes a while),
#: so this is generous; pass ``spawn_timeout`` to tighten it in tests.
DEFAULT_SPAWN_TIMEOUT = 180.0

#: Forwarding threads per worker: ``forward`` blocks on its worker's
#: reply, so this bounds the requests in flight to each worker (the
#: worker's default ``--turn-threads``).
FORWARD_THREADS_PER_WORKER = 16


def worker_dir(data_dir: str | Path, index: int) -> Path:
    """The slice of the data directory owned by worker ``index``."""
    return Path(data_dir) / "workers" / f"{index:02d}"


def affinity(session_id: str, workers: int) -> int:
    """Which worker owns ``session_id``.

    Numeric ids (the allocator's) map by residue class — the inverse of
    how workers allocate them.  Anything else hashes stably.
    """
    sid = session_id.strip()
    if sid.isdigit():
        return int(sid) % workers
    return zlib.crc32(sid.encode("utf-8")) % workers


class WorkerHandle:
    """One supervised worker subprocess and its lifecycle state."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.directory = directory
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.restarts = 0
        self.lock = threading.Lock()  # guards respawn vs. kill races

    @property
    def base_url(self) -> str | None:
        with self.lock:
            port = self.port
        if port is None:
            return None
        return f"http://127.0.0.1:{port}"

    @property
    def alive(self) -> bool:
        with self.lock:
            process = self.process
        return process is not None and process.poll() is None


class _Disconnected(ConnectionError):
    """The worker closed the socket before answering: a parked socket
    that went stale while idle."""


#: What a stale parked socket raises; only these are retried.
_STALE = (_Disconnected, ConnectionResetError, BrokenPipeError)

#: A keep-alive socket to a worker and the buffered reader over it.
_Connection = tuple[socket.socket, BinaryIO]


def _read_exactly(reader: BinaryIO, length: int) -> bytes:
    data = reader.read(length)
    if len(data) != length:
        raise ConnectionError("worker reply cut short")
    return data


def _read_chunk(reader: BinaryIO) -> bytes:
    """One chunk of a chunked body; b"" for the last (no trailers)."""
    size = int(reader.readline(MAX_HEAD_BYTES).split(b";")[0], 16)
    return _read_exactly(reader, size + 2)[:-2]


def _read_reply(reader: BinaryIO) -> tuple[int, dict[str, str], bytes, bool]:
    """One reply, head parsed like a request's: ``(status, headers,
    body, keep_alive)``; the body has a ``Content-Length`` or is
    chunked."""
    head = reader.readline(MAX_HEAD_BYTES)
    if not head:
        raise _Disconnected("worker closed the connection")
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline(MAX_HEAD_BYTES)
        if not line or len(head) > MAX_HEAD_BYTES:
            raise ConnectionError("worker reply head cut short or too large")
        head += line
    try:
        (version, status, _reason), headers = parse_head(head)
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = b"".join(iter(lambda: _read_chunk(reader), b""))
        else:
            body = _read_exactly(reader, int(headers["content-length"]))
        code = int(status)
    except (KeyError, ValueError) as exc:
        raise ConnectionError(f"malformed worker reply: {exc!r}") from None
    close = headers.get("connection", "").lower() == "close"
    return code, headers, body, version == "HTTP/1.1" and not close


def _close(connection: _Connection) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


class _WorkerClient:
    """HTTP/1.1 to the workers over blocking keep-alive sockets.

    Each request goes out in one write on a ``TCP_NODELAY`` socket.
    Sockets a reply left open are parked per worker port for the next
    request to that port; a restarted worker binds a new port and
    :meth:`discard` drops the old one's, so a replacement is never
    handed a socket to its dead predecessor.  A parked socket the
    worker closed while idle is retried exactly once, on a fresh
    connection; a fresh connection that fails is not retried (the
    worker is down, and clients retry with ``client_turn_id``).
    """

    def __init__(self, metrics: MetricsRegistry, max_idle_per_port: int = 8) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        self._idle: dict[int, list[_Connection]] = {}
        self._max_idle = max_idle_per_port
        self._closed = False

    def request(
        self, port: int, method: str, path: str, body: bytes, timeout: float
    ) -> tuple[int, dict[str, str], bytes]:
        """``(status, headers, body)`` from the worker on ``port``;
        ``OSError`` when it is unreachable, times out or answers
        garbage."""
        message = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        with self._lock:
            stack = self._idle.get(port)
            parked = stack.pop() if stack else None
        if parked is not None:
            self._metrics.counter("router_connections_reused_total").inc()
            parked[0].settimeout(timeout)
            try:
                return self._exchange(port, parked, message)
            except _STALE:
                self._metrics.counter("router_forward_retries_total").inc()
        sock = socket.create_connection(("127.0.0.1", port), timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._metrics.counter("router_connections_opened_total").inc()
        return self._exchange(port, (sock, sock.makefile("rb")), message)

    def _exchange(
        self, port: int, connection: _Connection, message: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        try:
            connection[0].sendall(message)
            status, headers, body, keep_alive = _read_reply(connection[1])
        except BaseException:
            _close(connection)
            raise
        with self._lock:
            stack = self._idle.setdefault(port, [])
            if keep_alive and not self._closed and len(stack) < self._max_idle:
                stack.append(connection)
                return status, headers, body
        _close(connection)
        return status, headers, body

    def discard(self, port: int) -> None:
        """Drop every parked socket for a (dead) worker incarnation."""
        with self._lock:
            stale = self._idle.pop(port, [])
        for connection in stale:
            _close(connection)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            parked = [c for stack in self._idle.values() for c in stack]
            self._idle.clear()
        for connection in parked:
            _close(connection)


class SessionRouter(AsyncHTTPServer):
    """Spawns, fronts and supervises N conversation-server workers.

    ``worker_args`` is appended to every worker's command line — the
    agent's ``--artifacts`` directory and durability tuning
    (``--fsync`` …) pass through untouched, so the router stays
    agnostic of how agents are built.

    The router serves on the shared asyncio front end
    (:class:`~repro.serving.frontend.AsyncHTTPServer`) from its own
    route table: ``GET /healthz``, ``GET /metrics`` and ``POST
    /refresh`` (broadcast) are its own, and every other request is
    forwarded (counted under the ``<unmatched>`` route label).
    ``broadcast`` is a coroutine on the loop; the other handlers run on
    the forwarding executor, sized per worker.  ``forward`` stays
    synchronous on purpose: the benchmark's tracer wraps it with a plain
    function and reads its ``(status, body, content_type)`` tuple.
    """

    def __init__(
        self,
        workers: int,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        worker_args: list[str] | None = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        health_interval: float = 1.0,
        forward_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise RouterError("router needs at least one worker")
        super().__init__(
            host, port,
            io_threads=FORWARD_THREADS_PER_WORKER * workers,
            name="repro-router",
        )
        self.data_dir = Path(data_dir)
        self.worker_args = list(worker_args or [])
        self.spawn_timeout = spawn_timeout
        self.health_interval = health_interval
        self.forward_timeout = forward_timeout
        self.metrics = MetricsRegistry()
        self.workers = [
            WorkerHandle(i, worker_dir(self.data_dir, i))
            for i in range(workers)
        ]
        self._round_robin = 0
        self._rr_lock = threading.Lock()
        self._client = _WorkerClient(self.metrics)
        self._lifecycle_lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self.metrics.gauge(
            "router_workers_alive",
            lambda: sum(1 for w in self.workers if w.alive),
        )
        self.metrics.gauge("router_workers_total", lambda: len(self.workers))
        self.table = self._routes()

    def _routes(self) -> RouteTable:
        """The router's route table, built per instance from bound
        methods."""
        return RouteTable(
            self.metrics,
            {
                "GET /healthz": Route(self.health),
                # Cluster-wide: every worker owns its own KB replica.
                "POST /refresh": Route(self.broadcast, on_loop=True),
            },
            fallback=Route(self.forward),
        )

    # -- worker lifecycle ----------------------------------------------------

    def _command(self, index: int) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--worker-index", str(index),
            "--workers", str(len(self.workers)),
            "--data-dir", str(self.data_dir),
            "--host", "127.0.0.1", "--port", "0",
        ] + self.worker_args

    def _launch(self, handle: WorkerHandle) -> float:
        """Start (or restart) one worker process without waiting for it.

        Returns the worker's readiness deadline, counted from its own
        launch; :meth:`_await_ready` waits for launched workers as a
        group.
        """
        handle.directory.mkdir(parents=True, exist_ok=True)
        (handle.directory / READY_FILE).unlink(missing_ok=True)
        log = open(handle.directory / "worker.log", "ab")
        try:
            # fork/exec happens outside handle.lock: the kill/stop paths
            # take that lock and must never wait behind a spawn.
            process = subprocess.Popen(
                self._command(handle.index),
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                # Detach from the controlling terminal's process group:
                # a Ctrl-C must reach only the router, which then
                # coordinates one SIGTERM per worker so each drains
                # and snapshots exactly once.
                start_new_session=True,
            )
        finally:
            log.close()  # the child holds its own descriptor
        with handle.lock:
            old_port = handle.port
            handle.port = None
            handle.process = process
        if old_port is not None:
            # Sockets parked for the dead incarnation can never be valid
            # for the replacement (which binds a fresh ephemeral port).
            self._client.discard(old_port)
        return time.monotonic() + self.spawn_timeout

    def _await_ready(
        self, launched: list[tuple[WorkerHandle, float]]
    ) -> Iterator[tuple[WorkerHandle, RouterError | None]]:
        """Wait for launched workers together, yielding each as it settles.

        ``launched`` pairs each handle with its deadline from
        :meth:`_launch`.  Yields ``(handle, None)`` once a worker serves
        (its port is recorded first) and ``(handle, error)`` once it
        exits, misses its deadline or the router stops; every handle is
        yielded exactly once, so a slow worker never delays the news
        about a fast or failed one.
        """
        pending = list(launched)
        while pending:
            waiting = []
            for handle, deadline in pending:
                with handle.lock:
                    process = handle.process
                if self._stopping.is_set() or process is None:
                    yield handle, RouterError(
                        f"worker {handle.index} was stopped during startup"
                    )
                elif process.poll() is not None:
                    yield handle, RouterError(
                        f"worker {handle.index} exited with code "
                        f"{process.returncode} during startup (see "
                        f"{handle.directory / 'worker.log'})"
                    )
                elif (
                    port := self._read_ready(
                        handle.directory / READY_FILE, process.pid
                    )
                ) is not None and self._healthy(port):
                    with handle.lock:
                        handle.port = port
                    yield handle, None
                elif time.monotonic() >= deadline:
                    yield handle, RouterError(
                        f"worker {handle.index} did not become ready within "
                        f"{self.spawn_timeout:.0f}s"
                    )
                else:
                    waiting.append((handle, deadline))
            pending = waiting
            if pending:
                time.sleep(0.05)

    @staticmethod
    def _read_ready(ready: Path, expected_pid: int) -> int | None:
        try:
            data = json.loads(ready.read_text(encoding="utf-8"))
            port = int(data["port"])
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return None
        if data.get("pid") != expected_pid:
            return None  # stale file from a previous incarnation
        return port

    def _healthy(self, port: int) -> bool:
        try:
            status, _headers, _body = self._client.request(
                port, "GET", "/healthz", b"", timeout=5.0
            )
        except OSError:
            return False
        return status == 200

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Deliver ``sig`` to a worker (crash drills); returns its pid."""
        handle = self.workers[index]
        with handle.lock:
            process = handle.process
            if process is None or process.poll() is not None:
                raise RouterError(f"worker {index} is not running")
            process.send_signal(sig)
            return process.pid

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.health_interval):
            self._sweep()

    def _sweep(self) -> None:
        """Relaunch every dead worker at once, then await them together."""
        launched = []
        for handle in self.workers:
            if self._stopping.is_set():
                break
            if handle.alive:
                continue
            with handle.lock:
                handle.restarts += 1
            self.metrics.counter("router_worker_restarts_total").inc()
            launched.append((handle, self._launch(handle)))
        for handle, error in self._await_ready(launched):
            # One that died again is relaunched on the next sweep.  One
            # still starting at its deadline has no port, and a live
            # process is never swept again: kill it so it is.
            if error is None or self._stopping.is_set():
                continue
            with handle.lock:
                process = handle.process
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=5.0)

    # -- routing -------------------------------------------------------------

    def pick_worker(self, session_id: str | None) -> WorkerHandle:
        if session_id:
            return self.workers[affinity(session_id, len(self.workers))]
        with self._rr_lock:
            index = self._round_robin % len(self.workers)
            self._round_robin += 1
        return self.workers[index]

    def forward(self, request: Request) -> tuple[int, bytes, str]:
        """Proxy one request to the worker of the session it names.

        Returns ``(status, body, content_type)``.  A dead or unreachable
        worker yields a fast 503 the client can retry against.
        """
        session_id = request.payload.get("session_id")
        handle = self.pick_worker(
            None if session_id is None else str(session_id)
        )
        self.metrics.counter(
            "router_requests_total", ("worker", str(handle.index))
        ).inc()
        return self._forward_to(handle, request)

    def _forward_to(
        self, handle: WorkerHandle, request: Request
    ) -> tuple[int, bytes, str]:
        """Proxy one request to one specific worker."""
        with handle.lock:
            port = handle.port
        if port is None or not handle.alive:
            return self._unavailable(handle)
        try:
            status, headers, payload = self._client.request(
                port, request.method, request.path, request.body,
                self.forward_timeout,
            )
        except OSError:
            return self._unavailable(handle)  # refused, timed out or cut off
        if status >= 400:
            # Worker answered with an error status — relayed verbatim.
            self.metrics.counter(
                "router_errors_total", ("code", str(status))
            ).inc()
        return status, payload, headers.get("content-type", "application/json")

    async def broadcast(self, request: Request) -> tuple[int, dict]:
        """Fan one request out to *every* worker at once and aggregate
        the results in worker order.

        Each worker owns an independent KB replica, so cluster-wide
        operations (``POST /refresh``) must reach all of them — session
        affinity would refresh one replica and leave N-1 serving the old
        snapshot.  Each exchange runs on its own executor thread and the
        loop awaits them together, so the replicas rebuild side by side.
        Returns 200 only when every worker accepted; any failure
        downgrades the aggregate to the worst worker status so the
        operator sees a partial refresh instead of a silent one.  (The
        router has no in-flight bound, so there is no unit to release.)
        """
        loop = asyncio.get_running_loop()
        for handle in self.workers:
            self.metrics.counter(
                "router_broadcasts_total", ("worker", str(handle.index))
            ).inc()
        replies = await asyncio.gather(*(
            loop.run_in_executor(self._io, self._forward_to, handle, request)
            for handle in self.workers
        ))
        results = []
        worst = 200
        for handle, (status, payload, _content_type) in zip(
            self.workers, replies
        ):
            try:
                parsed: Any = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                parsed = payload.decode("utf-8", "replace")
            results.append(
                {"worker": handle.index, "status": status, "body": parsed}
            )
            worst = max(worst, status)
        return worst, {
            "status": "ok" if worst < 400 else "partial_failure",
            "workers": results,
        }

    def _unavailable(self, handle: WorkerHandle) -> tuple[int, bytes, str]:
        self.metrics.counter("router_errors_total", ("code", "503")).inc()
        payload = json.dumps({
            "error": "worker_unavailable",
            "worker": handle.index,
            "message": "the session's worker is restarting; retry shortly",
        }).encode("utf-8")
        return 503, payload, "application/json"

    # -- router-local endpoints ---------------------------------------------

    def health(self, request: Request) -> tuple[int, dict]:
        workers = []
        all_up = True
        for handle in self.workers:
            with handle.lock:
                port = handle.port
                process = handle.process
                restarts = handle.restarts
            running = process is not None and process.poll() is None
            up = running and port is not None and self._healthy(port)
            all_up = all_up and up
            workers.append({
                "index": handle.index,
                "up": up,
                "port": port,
                "pid": process.pid if process else None,
                "restarts": restarts,
            })
        return (200 if all_up else 503), {
            "status": "ok" if all_up else "degraded",
            "role": "router",
            "workers": workers,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SessionRouter":
        """Spawn every worker and the monitor, then serve."""
        with self._lifecycle_lock:
            if self._monitor is not None:
                raise RuntimeError("router already started")
        try:
            # Launch every worker before waiting on any: each builds its
            # agent from scratch, and the builds overlap.
            launched = [
                (handle, self._launch(handle)) for handle in self.workers
            ]
            for _handle, error in self._await_ready(launched):
                if error is not None:
                    raise error
            with self._lifecycle_lock:
                self._monitor = threading.Thread(
                    target=self._monitor_loop,
                    name="repro-router-monitor",
                    daemon=True,
                )
                self._monitor.start()
            super().start()
        except BaseException:
            self.shutdown()
            raise
        return self

    def shutdown(self) -> None:
        """Stop the monitor, terminate every worker, close the listener."""
        self._stopping.set()
        with self._lifecycle_lock:
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join(timeout=5.0)
        for handle in self.workers:
            with handle.lock:
                process, handle.process = handle.process, None
            if process is None or process.poll() is not None:
                continue
            process.terminate()  # workers drain + snapshot on SIGTERM
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        super().shutdown()
        self._client.close()

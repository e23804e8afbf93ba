"""The router's side of the wire: its worker client and the fan-out.

Stub workers here are raw sockets on threads of the test process, so
each test controls exactly what a worker does to a connection: answer
and keep it, answer and close it, or never answer.  The router is
started with no subprocesses; each test points its worker handles at
stubs.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.persistence.router import SessionRouter
from repro.serving.frontend import Request
from tests.serving.conftest import http_json


class _Running:
    """A stand-in for a live worker process (``handle.alive`` is True)."""

    pid = 0

    def poll(self) -> None:
        return None

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def wait(self, timeout: float | None = None) -> int:
        return 0


class StubWorker:
    """A worker on raw sockets, one thread per connection.

    ``mode`` is what it does after each reply: ``keep`` keeps the
    connection, ``drop`` closes it without saying so (a parked socket
    goes stale), ``close`` says ``Connection: close`` and closes it,
    ``silent`` never answers.  ``POST /refresh`` waits on ``barrier``
    first, if one is given, and answers 500 when it breaks.
    """

    def __init__(self, mode: str = "keep",
                 barrier: threading.Barrier | None = None) -> None:
        self.mode = mode
        self.barrier = barrier
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self.refreshed = 0
        self.hung_up = 0  # connections the router closed
        self._stop = threading.Event()
        self._conns: list[socket.socket] = []
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            self._conns.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while True:
                request_line = reader.readline()
                if not request_line:
                    self.hung_up += 1
                    return
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                reader.read(length)
                path = request_line.split()[1].decode("latin-1")
                if self.mode == "silent":
                    self._stop.wait()
                    return
                status, body = 200, b'{"status": "ok"}'
                if path == "/refresh":
                    try:
                        if self.barrier is not None:
                            self.barrier.wait()
                        self.refreshed += 1
                    except threading.BrokenBarrierError:
                        status, body = 500, b'{"error": "barrier broken"}'
                head = (
                    f"HTTP/1.1 {status} X\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + ("Connection: close\r\n" if self.mode == "close" else "")
                    + "\r\n"
                )
                conn.sendall(head.encode("latin-1") + body)
                if self.mode in ("drop", "close"):
                    return
        except OSError:
            return
        finally:
            reader.close()
            conn.close()

    def stop(self) -> None:
        self._stop.set()
        self.listener.close()
        for conn in self._conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()


def _closed_port() -> int:
    """A port nothing listens on: connecting to it is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def stubs():
    made: list[StubWorker] = []

    def make(*args, **kwargs) -> StubWorker:
        made.append(StubWorker(*args, **kwargs))
        return made[-1]

    yield make
    for stub in made:
        stub.stop()


@pytest.fixture
def make_router(tmp_path):
    """A serving router whose worker ``i`` is ``ports[i]`` (a port with
    nothing behind it stands for a worker that is down)."""
    routers: list[SessionRouter] = []

    def make(*ports: int, forward_timeout: float = 30.0) -> SessionRouter:
        router = SessionRouter(
            len(ports), tmp_path / f"data-{len(routers)}", port=0,
            health_interval=3600.0, forward_timeout=forward_timeout,
        )
        routers.append(router)
        # Start without launching a process; the handles point at stubs.
        router._launch = lambda handle: 0.0
        router._await_ready = lambda launched: []
        router.start()
        for handle, port in zip(router.workers, ports):
            handle.process = _Running()
            handle.port = port
        return router

    yield make
    for router in routers:
        router.shutdown()


def _count(router: SessionRouter, name: str) -> int:
    return router.metrics.counter(name).value


def _forward(router: SessionRouter):
    request = Request("POST", "/chat", {}, payload={"session_id": "0"})
    request.body = b'{"session_id": "0"}'
    return router.forward(request)


class TestBroadcastFanOut:
    def test_workers_refresh_at_the_same_time(self, make_router, stubs):
        # Each worker's /refresh returns only once the other one's has
        # started: refreshed one after another, the first would wait
        # out the barrier and both would fail.
        barrier = threading.Barrier(2, timeout=5.0)
        first, second = stubs(barrier=barrier), stubs(barrier=barrier)
        router = make_router(first.port, second.port)
        status, body = http_json(router.address + "/refresh", {}, timeout=30.0)
        assert status == 200, body
        assert body["status"] == "ok"
        assert [w["worker"] for w in body["workers"]] == [0, 1]
        assert [w["status"] for w in body["workers"]] == [200, 200]
        assert first.refreshed == second.refreshed == 1
        text = router.metrics.render()
        assert 'router_broadcasts_total{worker="0"} 1' in text
        assert 'router_broadcasts_total{worker="1"} 1' in text

    def test_one_worker_down_is_a_partial_failure(self, make_router, stubs):
        alive = stubs()
        router = make_router(_closed_port(), alive.port)
        status, body = http_json(router.address + "/refresh", {}, timeout=30.0)
        assert status == 503
        assert body["status"] == "partial_failure"
        down, up = body["workers"]
        assert (down["worker"], down["status"]) == (0, 503)
        assert down["body"]["error"] == "worker_unavailable"
        assert (up["worker"], up["status"]) == (1, 200)
        assert alive.refreshed == 1


class TestWorkerClient:
    def test_stale_parked_socket_is_retried_exactly_once(
        self, make_router, stubs
    ):
        stub = stubs("drop")
        router = make_router(stub.port)
        assert _forward(router)[0] == 200
        # The worker closed the parked socket; the next request finds
        # it stale and resends once on a fresh connection.
        time.sleep(0.05)
        assert _forward(router)[0] == 200
        assert _count(router, "router_forward_retries_total") == 1
        assert _count(router, "router_connections_reused_total") == 1
        assert _count(router, "router_connections_opened_total") == 2
        assert stub.accepted == 2

    def test_refused_fresh_connection_is_503_without_retry(
        self, make_router
    ):
        router = make_router(_closed_port())
        status, payload, content_type = _forward(router)
        assert status == 503
        assert b"worker_unavailable" in payload
        assert content_type == "application/json"
        assert _count(router, "router_forward_retries_total") == 0

    def test_connection_close_reply_is_not_parked(self, make_router, stubs):
        stub = stubs("close")
        router = make_router(stub.port)
        for _ in range(3):
            assert _forward(router)[0] == 200
        assert _count(router, "router_connections_reused_total") == 0
        assert _count(router, "router_connections_opened_total") == 3
        assert _count(router, "router_forward_retries_total") == 0
        assert stub.accepted == 3

    def test_worker_that_never_answers_is_503_within_forward_timeout(
        self, make_router, stubs
    ):
        stub = stubs("silent")
        router = make_router(stub.port, forward_timeout=0.5)
        started = time.monotonic()
        status, payload, _content_type = _forward(router)
        elapsed = time.monotonic() - started
        assert status == 503
        assert b"worker_unavailable" in payload
        assert 0.4 < elapsed < 2.0
        assert _count(router, "router_forward_retries_total") == 0

    def test_relaunched_worker_is_never_handed_an_old_socket(
        self, make_router, stubs, monkeypatch
    ):
        old = stubs("keep")
        router = make_router(old.port)
        assert _forward(router)[0] == 200  # parks a socket for old.port
        monkeypatch.setattr(
            SessionRouter, "_command",
            lambda self, index: [
                sys.executable, "-c", "import time; time.sleep(60)"
            ],
        )
        del router._launch
        handle = router.workers[0]
        router._launch(handle)
        # Relaunching closes the sockets parked for the old incarnation,
        # though its listener is still up.
        deadline = time.monotonic() + 5.0
        while old.hung_up == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert old.hung_up == 1
        new = stubs("keep")
        handle.port = new.port
        assert _forward(router)[0] == 200
        assert _count(router, "router_connections_reused_total") == 0
        assert _count(router, "router_connections_opened_total") == 2
        assert old.accepted == new.accepted == 1

    def test_keep_alive_socket_is_reused(self, make_router, stubs):
        stub = stubs("keep")
        router = make_router(stub.port)
        for _ in range(3):
            assert _forward(router)[0] == 200
        assert _count(router, "router_connections_opened_total") == 1
        assert _count(router, "router_connections_reused_total") == 2
        assert stub.accepted == 1
